// Tests for the exact branch-and-bound reference solver, and the
// optimality checks it enables on Step 1 and the lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baseline/lower_bound.hpp"
#include "common/error.hpp"
#include "core/step1.hpp"
#include "exact/branch_bound.hpp"
#include "soc/generator.hpp"

namespace mst {
namespace {

TEST(Exact, SingleModuleEqualsItsMinWidth)
{
    const Soc soc("solo", {Module("m", 4, 4, 0, 50, {30, 20})});
    const SocTimeTables tables(soc);
    const CycleCount depth = tables.time(0, 2) + 5;
    const auto result = exact_min_wires(tables, depth);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->wires, tables.min_width_for(0, depth).value());
    ASSERT_EQ(result->groups.size(), 1u);
}

TEST(Exact, MergesIdenticalModulesWhenDepthAllows)
{
    std::vector<Module> modules;
    for (int i = 0; i < 3; ++i) {
        modules.emplace_back("m" + std::to_string(i), 2, 2, 0, 10,
                             std::vector<FlipFlopCount>{20});
    }
    const Soc soc("trio", std::move(modules));
    const SocTimeTables tables(soc);
    const CycleCount each = tables.time(0, 1);
    // All three fit serially on one wire.
    const auto result = exact_min_wires(tables, 3 * each + 10);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->wires, 1);
    EXPECT_EQ(result->groups.size(), 1u);
}

TEST(Exact, SplitsWhenDepthForcesIt)
{
    std::vector<Module> modules;
    for (int i = 0; i < 3; ++i) {
        modules.emplace_back("m" + std::to_string(i), 2, 2, 0, 10,
                             std::vector<FlipFlopCount>{20});
    }
    const Soc soc("trio", std::move(modules));
    const SocTimeTables tables(soc);
    const CycleCount each = tables.time(0, 1);
    // One wire holds at most one test: at least... the optimum may still
    // widen a single group; the exact solver decides. It must respect
    // the area lower bound.
    const auto result = exact_min_wires(tables, each + 1);
    ASSERT_TRUE(result.has_value());
    const auto lb = lower_bound_wires(tables, each + 1);
    ASSERT_TRUE(lb.has_value());
    EXPECT_GE(result->wires, *lb);
    EXPECT_GT(result->wires, 1);
}

TEST(Exact, NulloptWhenUntestable)
{
    const Soc soc("solo", {Module("m", 1, 1, 0, 100, {500})});
    const SocTimeTables tables(soc);
    EXPECT_FALSE(exact_min_wires(tables, 50).has_value());
}

/// Minimum group width by exhaustive scan, using only the clamped
/// accessors: the reference the solver's binary search is checked
/// against in the wide+narrow saturation regression below.
WireCount brute_group_width(const SocTimeTables& tables, const std::vector<int>& members,
                            CycleCount depth)
{
    WireCount max_width = 0;
    for (const int m : members) {
        max_width = std::max(max_width, tables.flat_max_width(m));
    }
    for (WireCount width = 1; width <= max_width; ++width) {
        CycleCount fill = 0;
        for (const int m : members) {
            fill += tables.time_row(m).at_width(width);
        }
        if (fill <= depth) {
            return width;
        }
    }
    return 0; // no width fits
}

TEST(Exact, WideNarrowSaturationMatchesBruteForce)
{
    // One module with a wide staircase next to one whose staircase
    // truncates early (a single short chain): a merged group probes
    // widths far past the narrow module's recorded widths. Those probes
    // must read the saturated tail of the truncated staircase — never
    // past its end — and agree with a brute-force scan over both
    // partitions of the pair using the clamped accessors.
    const Soc soc("mix", {Module("wide", 8, 8, 0, 40, {60, 55, 50, 45, 40, 35, 30, 25}),
                          Module("narrow", 1, 1, 0, 25, {35})});
    const SocTimeTables tables(soc);
    ASSERT_GT(tables.flat_max_width(0), tables.flat_max_width(1));

    const CycleCount solo_floor = std::max(tables.time(0, tables.flat_max_width(0)),
                                           tables.time(1, tables.flat_max_width(1)));
    const std::vector<CycleCount> depths = {solo_floor, solo_floor + 50, 2 * solo_floor,
                                            8 * solo_floor, 64 * solo_floor};
    for (const CycleCount depth : depths) {
        const WireCount merged = brute_group_width(tables, {0, 1}, depth);
        const WireCount solo0 = brute_group_width(tables, {0}, depth);
        const WireCount solo1 = brute_group_width(tables, {1}, depth);
        WireCount best = merged;
        if (solo0 > 0 && solo1 > 0 && (best == 0 || solo0 + solo1 < best)) {
            best = solo0 + solo1;
        }
        const auto result = exact_min_wires(tables, depth);
        ASSERT_TRUE(result.has_value()) << "depth " << depth;
        EXPECT_TRUE(result->certified);
        EXPECT_EQ(result->wires, best) << "depth " << depth;
    }
}

TEST(Exact, DepthInfeasibilityCarriesKind)
{
    const Soc soc("solo", {Module("m", 1, 1, 0, 100, {500})});
    const SocTimeTables tables(soc);
    try {
        (void)exact_search(tables, 50, {});
        FAIL() << "expected ExactInfeasibleError";
    } catch (const ExactInfeasibleError& error) {
        EXPECT_EQ(error.kind(), ExactInfeasible::depth);
    }
    // The InfeasibleError base keeps generic taxonomy mapping (serve's
    // "infeasible" response kind, batch error rows) working unchanged.
    EXPECT_THROW((void)exact_search(tables, 50, {}), InfeasibleError);
}

TEST(Exact, BudgetInfeasibilityCarriesKind)
{
    std::vector<Module> modules;
    for (int i = 0; i < 3; ++i) {
        modules.emplace_back("m" + std::to_string(i), 2, 2, 0, 10,
                             std::vector<FlipFlopCount>{20});
    }
    const Soc soc("trio", std::move(modules));
    const SocTimeTables tables(soc);
    const CycleCount depth = tables.time(0, 1) + 1; // forces > 1 wire
    const ExactResult unconstrained = exact_search(tables, depth, {});
    ASSERT_GT(unconstrained.wires, 1);

    ExactOptions tight;
    tight.wire_budget = unconstrained.wires - 1;
    try {
        (void)exact_search(tables, depth, tight);
        FAIL() << "expected ExactInfeasibleError";
    } catch (const ExactInfeasibleError& error) {
        EXPECT_EQ(error.kind(), ExactInfeasible::budget);
    }

    // A budget exactly at the optimum is met, not rejected.
    ExactOptions enough;
    enough.wire_budget = unconstrained.wires;
    const ExactResult at_budget = exact_search(tables, depth, enough);
    EXPECT_EQ(at_budget.wires, unconstrained.wires);
    EXPECT_TRUE(at_budget.certified);
}

TEST(Exact, MalformedSeedsAreRejected)
{
    const Soc soc = random_soc(3, 4);
    const SocTimeTables tables(soc);
    const CycleCount depth = 150'000;
    ASSERT_TRUE(exact_min_wires(tables, depth).has_value());

    const auto run = [&](std::vector<std::vector<int>> seed) {
        ExactOptions options;
        options.seed = std::move(seed);
        return exact_search(tables, depth, options);
    };
    EXPECT_THROW((void)run({{0, 1, 2}}), ValidationError);          // misses module 3
    EXPECT_THROW((void)run({{0, 1}, {1, 2, 3}}), ValidationError);  // covers 1 twice
    EXPECT_THROW((void)run({{0, 1}, {}, {2, 3}}), ValidationError); // empty group
    EXPECT_THROW((void)run({{0, 1}, {2, 4}}), ValidationError);     // out of range
}

TEST(Exact, NodeLimitReturnsUncertifiedIncumbent)
{
    const Soc soc = random_soc(7, 8);
    const SocTimeTables tables(soc);
    const CycleCount depth = 120'000;
    const ExactResult full = exact_search(tables, depth, {});
    ASSERT_TRUE(full.certified);
    ASSERT_GT(full.nodes_explored, 1);

    ExactOptions stunted;
    stunted.node_limit = 1;
    const ExactResult truncated = exact_search(tables, depth, stunted);
    EXPECT_FALSE(truncated.certified);
    EXPECT_GE(truncated.wires, full.wires);
    EXPECT_LT(truncated.nodes_explored, full.nodes_explored);
    // Even the truncated answer is a complete, valid partition.
    std::vector<int> seen(8, 0);
    for (const auto& group : truncated.groups) {
        for (const int m : group) {
            ++seen[static_cast<std::size_t>(m)];
        }
    }
    for (const int count : seen) {
        EXPECT_EQ(count, 1);
    }
}

TEST(Exact, RejectsOversizedProblems)
{
    const Soc soc = random_soc(1, exact_module_limit + 1);
    const SocTimeTables tables(soc);
    EXPECT_THROW((void)exact_min_wires(tables, 1'000'000), ValidationError);
}

TEST(Exact, RejectsBadDepth)
{
    const Soc soc = random_soc(1, 3);
    const SocTimeTables tables(soc);
    EXPECT_THROW((void)exact_min_wires(tables, 0), ValidationError);
}

TEST(Exact, EveryModuleInExactlyOneGroup)
{
    const Soc soc = random_soc(7, 8);
    const SocTimeTables tables(soc);
    const auto result = exact_min_wires(tables, 120'000);
    ASSERT_TRUE(result.has_value());
    std::vector<int> seen(8, 0);
    for (const auto& group : result->groups) {
        for (const int m : group) {
            ++seen[static_cast<std::size_t>(m)];
        }
    }
    for (const int count : seen) {
        EXPECT_EQ(count, 1);
    }
}

/// The headline property: Step 1 is sandwiched between the [7] lower
/// bound and the exact optimum-plus-nothing — i.e.
/// LB <= exact <= step1, with step1's gap small on these instances.
class ExactGapTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactGapTest, Step1WithinTwoWiresOfOptimal)
{
    const Soc soc = random_soc(GetParam(), 7);
    const SocTimeTables tables(soc);
    const CycleCount depth = 90'000;

    const auto exact = exact_min_wires(tables, depth);
    if (!exact) {
        GTEST_SKIP() << "untestable at this depth";
    }
    const auto lb = lower_bound_wires(tables, depth);
    ASSERT_TRUE(lb.has_value());
    EXPECT_LE(*lb, exact->wires);

    AteSpec ate;
    ate.channels = 512;
    ate.vector_memory_depth = depth;
    const Step1Result step1 = run_step1(tables, ate, OptimizeOptions{});
    const WireCount step1_wires = wires_from_channels(step1.channels);
    EXPECT_GE(step1_wires, exact->wires) << "heuristic beat the exact optimum?!";
    EXPECT_LE(step1_wires, exact->wires + 2) << "Step 1 gap too large";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactGapTest,
                         testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u, 99u, 111u));

} // namespace
} // namespace mst
