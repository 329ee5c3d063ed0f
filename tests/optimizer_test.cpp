// Unit tests for the optimize_multi_site facade: Problems 1 and 2, all
// option variants, and solution consistency.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/optimizer.hpp"
#include "soc/d695.hpp"
#include "soc/generator.hpp"

namespace mst {
namespace {

TestCell d695_cell()
{
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 48 * kibi;
    cell.ate.test_clock_hz = 5e6;
    return cell;
}

TEST(Optimizer, SolvesD695)
{
    const Solution solution = optimize_multi_site(make_d695(), d695_cell());
    EXPECT_EQ(solution.soc_name, "d695");
    EXPECT_GE(solution.sites, 1);
    EXPECT_GT(solution.best_throughput(), 0.0);
    EXPECT_FALSE(solution.groups.empty());
    EXPECT_EQ(solution.erpct.external_channels, solution.channels_per_site);
}

TEST(Optimizer, SolutionFieldsAreConsistent)
{
    const TestCell cell = d695_cell();
    const Solution solution = optimize_multi_site(make_d695(), cell);
    EXPECT_DOUBLE_EQ(solution.manufacturing_time,
                     cell.ate.seconds_for(solution.test_cycles));
    WireCount wires = 0;
    for (const GroupSummary& group : solution.groups) {
        wires += group.wires;
        EXPECT_LE(group.fill, cell.ate.vector_memory_depth);
    }
    EXPECT_EQ(channels_from_wires(wires), solution.channels_per_site);
}

TEST(Optimizer, SiteCurveMatchesBestThroughput)
{
    const Solution solution = optimize_multi_site(make_d695(), d695_cell());
    double best = 0.0;
    for (const SitePoint& point : solution.site_curve) {
        best = std::max(best, point.figure_of_merit);
    }
    EXPECT_DOUBLE_EQ(solution.best_throughput(), best);
}

TEST(Optimizer, Step1OnlySkipsTheSearch)
{
    OptimizeOptions options;
    options.step1_only = true;
    const Solution solution = optimize_multi_site(make_d695(), d695_cell(), options);
    EXPECT_EQ(solution.sites, solution.max_sites_step1);
    EXPECT_EQ(solution.channels_per_site, solution.channels_step1);
    EXPECT_TRUE(solution.site_curve.empty());
}

TEST(Optimizer, FlatSocIsProblem2)
{
    // A flattened SOC: one module. The E-RPCT wrapper and module wrapper
    // coincide; there is exactly one channel group.
    const Soc flat("flat", {Module("top", 40, 40, 0, 500, {64, 64, 64, 64})});
    TestCell cell;
    cell.ate.channels = 64;
    cell.ate.vector_memory_depth = 100'000;
    const Solution solution = optimize_multi_site(flat, cell);
    EXPECT_EQ(solution.groups.size(), 1u);
    EXPECT_EQ(solution.module_name(solution.groups[0].module_indices[0]), "top");
}

TEST(Optimizer, BroadcastAllowsMoreSites)
{
    OptimizeOptions plain;
    OptimizeOptions broadcast;
    broadcast.broadcast = BroadcastMode::stimuli;
    const Solution without = optimize_multi_site(make_d695(), d695_cell(), plain);
    const Solution with = optimize_multi_site(make_d695(), d695_cell(), broadcast);
    EXPECT_GT(with.max_sites_step1, without.max_sites_step1);
    EXPECT_GE(with.best_throughput(), without.best_throughput());
}

TEST(Optimizer, RetestPolicyOptimizesUniqueThroughput)
{
    OptimizeOptions options;
    options.retest = RetestPolicy::retest_contact_failures;
    options.yields.contact_yield_per_terminal = 0.995;
    const Solution solution = optimize_multi_site(make_d695(), d695_cell(), options);
    EXPECT_DOUBLE_EQ(solution.best_throughput(),
                     solution.throughput.unique_devices_per_hour);
    EXPECT_LT(solution.throughput.unique_devices_per_hour,
              solution.throughput.devices_per_hour);
}

TEST(Optimizer, AbortOnFailImprovesThroughputAtLowYield)
{
    OptimizeOptions plain;
    plain.yields.manufacturing_yield = 0.7;
    OptimizeOptions abort = plain;
    abort.abort = AbortOnFail::on;
    const Solution without = optimize_multi_site(make_d695(), d695_cell(), plain);
    const Solution with = optimize_multi_site(make_d695(), d695_cell(), abort);
    EXPECT_GE(with.best_throughput(), without.best_throughput());
}

TEST(Optimizer, InfeasibleAteThrows)
{
    TestCell cell;
    cell.ate.channels = 4;
    cell.ate.vector_memory_depth = 1000; // d695 cannot fit
    EXPECT_THROW((void)optimize_multi_site(make_d695(), cell), InfeasibleError);
}

TEST(Optimizer, InvalidCellThrows)
{
    TestCell cell = d695_cell();
    cell.ate.test_clock_hz = 0.0;
    EXPECT_THROW((void)optimize_multi_site(make_d695(), cell), ValidationError);
}

TEST(Optimizer, ValidateSolutionCatchesTampering)
{
    const TestCell cell = d695_cell();
    Solution solution = optimize_multi_site(make_d695(), cell);
    EXPECT_NO_THROW(validate_solution(solution, make_d695(), cell.ate, BroadcastMode::none));

    Solution broken = solution;
    broken.channels_per_site += 2; // no longer matches the groups
    EXPECT_THROW(validate_solution(broken, make_d695(), cell.ate, BroadcastMode::none),
                 ValidationError);

    broken = solution;
    broken.sites = 10'000; // channel budget violated
    EXPECT_THROW(validate_solution(broken, make_d695(), cell.ate, BroadcastMode::none),
                 ValidationError);

    broken = solution;
    broken.groups.pop_back(); // a module is now unassigned
    EXPECT_THROW(validate_solution(broken, make_d695(), cell.ate, BroadcastMode::none),
                 ValidationError);

    broken = solution;
    broken.erpct.external_channels += 2;
    EXPECT_THROW(validate_solution(broken, make_d695(), cell.ate, BroadcastMode::none),
                 ValidationError);

    // Coverage is checked by module index.
    const Soc soc = make_d695();
    ASSERT_GE(solution.groups.size(), 2u);
    const auto rejects = [&](const Solution& tampered) {
        EXPECT_THROW(validate_solution(tampered, soc, cell.ate, BroadcastMode::none),
                     ValidationError);
    };

    // A module listed in a second group as well.
    broken = solution;
    broken.groups[1].module_indices.push_back(broken.groups[0].module_indices[0]);
    rejects(broken);

    // Indices outside the SOC.
    broken = solution;
    broken.groups[0].module_indices[0] = soc.module_count();
    rejects(broken);
    broken = solution;
    broken.groups[0].module_indices[0] = -1;
    rejects(broken);

    // A names table that is missing or not the SOC's size.
    broken = solution;
    broken.module_names = nullptr;
    rejects(broken);
    broken = solution;
    const std::vector<Module> fewer(soc.modules().begin(), soc.modules().end() - 1);
    broken.module_names = std::make_shared<const ModuleNames>(Soc(soc.name(), fewer));
    rejects(broken);
}

/// All eight broadcast x abort x retest combinations on one SOC.
struct VariantCombo {
    BroadcastMode broadcast;
    AbortOnFail abort;
    RetestPolicy retest;
};

class OptimizerVariantTest : public testing::TestWithParam<VariantCombo> {};

TEST_P(OptimizerVariantTest, ProducesValidSolutions)
{
    const VariantCombo combo = GetParam();
    OptimizeOptions options;
    options.broadcast = combo.broadcast;
    options.abort = combo.abort;
    options.retest = combo.retest;
    options.yields.contact_yield_per_terminal = 0.999;
    options.yields.manufacturing_yield = 0.85;

    const TestCell cell = d695_cell();
    const Solution solution = optimize_multi_site(make_d695(), cell, options);
    EXPECT_NO_THROW(validate_solution(solution, make_d695(), cell.ate, combo.broadcast));
    EXPECT_GT(solution.best_throughput(), 0.0);
    EXPECT_LE(solution.throughput.unique_devices_per_hour,
              solution.throughput.devices_per_hour);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, OptimizerVariantTest,
    testing::Values(
        VariantCombo{BroadcastMode::none, AbortOnFail::off, RetestPolicy::none},
        VariantCombo{BroadcastMode::none, AbortOnFail::off, RetestPolicy::retest_contact_failures},
        VariantCombo{BroadcastMode::none, AbortOnFail::on, RetestPolicy::none},
        VariantCombo{BroadcastMode::none, AbortOnFail::on, RetestPolicy::retest_contact_failures},
        VariantCombo{BroadcastMode::stimuli, AbortOnFail::off, RetestPolicy::none},
        VariantCombo{BroadcastMode::stimuli, AbortOnFail::off,
                     RetestPolicy::retest_contact_failures},
        VariantCombo{BroadcastMode::stimuli, AbortOnFail::on, RetestPolicy::none},
        VariantCombo{BroadcastMode::stimuli, AbortOnFail::on,
                     RetestPolicy::retest_contact_failures}));

} // namespace
} // namespace mst
