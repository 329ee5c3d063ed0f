// Unit tests for Step 2: the linear site-count search with channel
// redistribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/pack_engine.hpp"
#include "core/step1.hpp"
#include "core/step2.hpp"
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

TEST(Step2, CurveCoversAllSiteCounts)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const OptimizeOptions options;
    const Step1Result step1 = run_step1(tables, d695_cell().ate, options);
    const Step2Result step2 = run_step2(step1, d695_cell(), options);

    ASSERT_EQ(static_cast<int>(step2.curve.size()), step1.max_sites);
    for (std::size_t i = 0; i < step2.curve.size(); ++i) {
        EXPECT_EQ(step2.curve[i].sites, step1.max_sites - static_cast<SiteCount>(i));
    }
}

TEST(Step2, BestPointIsTheCurveMaximum)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const OptimizeOptions options;
    const Step1Result step1 = run_step1(tables, d695_cell().ate, options);
    const Step2Result step2 = run_step2(step1, d695_cell(), options);

    double best = 0.0;
    for (const SitePoint& point : step2.curve) {
        best = std::max(best, point.figure_of_merit);
    }
    EXPECT_DOUBLE_EQ(figure_of_merit(step2.best_throughput, options.retest), best);
    EXPECT_GE(step2.best_sites, 1);
    EXPECT_LE(step2.best_sites, step1.max_sites);
}

TEST(Step2, RedistributionNeverIncreasesTestTime)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const OptimizeOptions options;
    const Step1Result step1 = run_step1(tables, d695_cell().ate, options);
    const Step2Result step2 = run_step2(step1, d695_cell(), options);

    // Walking down in sites only frees channels, so the per-SOC test
    // time is non-increasing along the curve.
    for (std::size_t i = 1; i < step2.curve.size(); ++i) {
        EXPECT_LE(step2.curve[i].test_cycles, step2.curve[i - 1].test_cycles)
            << "n=" << step2.curve[i].sites;
    }
    // And never worse than Step 1's own time.
    EXPECT_LE(step2.curve.front().test_cycles, step1.architecture.test_cycles());
}

TEST(Step2, PerSiteChannelsRespectTheBudget)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    for (const BroadcastMode mode : {BroadcastMode::none, BroadcastMode::stimuli}) {
        OptimizeOptions options;
        options.broadcast = mode;
        const Step1Result step1 = run_step1(tables, d695_cell().ate, options);
        const Step2Result step2 = run_step2(step1, d695_cell(), options);
        for (const SitePoint& point : step2.curve) {
            EXPECT_LE(point.channels_per_site,
                      per_site_channel_budget(point.sites, d695_cell().ate.channels, mode))
                << "n=" << point.sites;
            EXPECT_GE(point.channels_per_site, step1.channels);
        }
    }
}

TEST(Step2, BestThroughputAtLeastStepOneOperatingPoint)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const OptimizeOptions options;
    const Step1Result step1 = run_step1(tables, d695_cell().ate, options);
    const Step2Result step2 = run_step2(step1, d695_cell(), options);

    // The n = n_max point of the curve is exactly Step 1 plus possible
    // redistribution, so the best can only be better or equal.
    EXPECT_GE(figure_of_merit(step2.best_throughput, options.retest),
              step2.curve.front().figure_of_merit);
}

TEST(Step2, SingleSiteAteStillWorks)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    TestCell cell = d695_cell();
    cell.ate.channels = 32; // forces n_max == 1
    OptimizeOptions options;
    const Step1Result step1 = run_step1(tables, cell.ate, options);
    ASSERT_EQ(step1.max_sites, 1);
    const Step2Result step2 = run_step2(step1, cell, options);
    EXPECT_EQ(step2.best_sites, 1);
    EXPECT_EQ(step2.curve.size(), 1u);
}

TEST(Step2, RejectsUnusableStep1Result)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const OptimizeOptions options;
    Step1Result broken = run_step1(tables, d695_cell().ate, options);
    broken.max_sites = 0;
    EXPECT_THROW((void)run_step2(broken, d695_cell(), options), ValidationError);
}

/// Property sweep over random SOCs: the Step-2 curve is internally
/// consistent for every broadcast/abort/retest combination, and the
/// reported winner is the curve's maximum with its own architecture.
struct Step2Combo {
    std::uint64_t seed;
    BroadcastMode broadcast;
    ChannelCount channels = 128;
    CycleCount depth = 80'000;
    Seconds index_time = ProbeStation{}.index_time;
};

class Step2PropertyTest : public testing::TestWithParam<Step2Combo> {};

TEST_P(Step2PropertyTest, CurveInvariants)
{
    const Step2Combo combo = GetParam();
    const Soc soc = random_soc(combo.seed, 8);
    const SocTimeTables tables(soc);
    TestCell cell;
    cell.ate.channels = combo.channels;
    cell.ate.vector_memory_depth = combo.depth;
    cell.prober.index_time = combo.index_time;

    OptimizeOptions options;
    options.broadcast = combo.broadcast;
    options.yields.contact_yield_per_terminal = 0.999;
    options.yields.manufacturing_yield = 0.9;
    options.abort = AbortOnFail::on;
    options.retest = RetestPolicy::retest_contact_failures;

    const Step1Result step1 = run_step1(tables, cell.ate, options);
    const Step2Result step2 = run_step2(step1, cell, options);
    ASSERT_FALSE(step2.curve.empty());
    for (const SitePoint& point : step2.curve) {
        EXPECT_GT(point.figure_of_merit, 0.0);
        EXPECT_LE(point.unique_devices_per_hour, point.devices_per_hour);
        EXPECT_LE(point.test_cycles, cell.ate.vector_memory_depth);
        EXPECT_EQ(point.channels_per_site % 2, 0);
    }

    // The winner is the first strict maximum in descending-n order, and
    // everything reported for it belongs to that curve point.
    std::size_t best = 0;
    for (std::size_t i = 1; i < step2.curve.size(); ++i) {
        if (step2.curve[i].figure_of_merit > step2.curve[best].figure_of_merit) {
            best = i;
        }
    }
    const SitePoint& winner = step2.curve[best];
    EXPECT_EQ(step2.best_sites, winner.sites);
    EXPECT_EQ(step2.best_architecture.channels(), winner.channels_per_site);
    EXPECT_EQ(step2.best_architecture.test_cycles(), winner.test_cycles);
    EXPECT_EQ(step2.best_throughput.devices_per_hour, winner.devices_per_hour);
    EXPECT_EQ(step2.best_throughput.unique_devices_per_hour, winner.unique_devices_per_hour);
    EXPECT_EQ(figure_of_merit(step2.best_throughput, options.retest), winner.figure_of_merit);

    // The long curves must keep exercising the winner's recovery: the
    // incumbent changes both before and after a mid-curve winner.
    if (combo.channels >= 1024) {
        EXPECT_GE(step2.curve.size(), 256u);
        const SitePoint& first = step2.curve.front();
        const SitePoint& last = step2.curve.back();
        EXPECT_NE(winner.test_cycles, first.test_cycles);
        EXPECT_TRUE(winner.test_cycles != last.test_cycles ||
                    winner.channels_per_site != last.channels_per_site);
    }
}

// The long curves (256 to 511 points) use a fast prober (1 ms index
// time), so test time weighs enough to move the winner off n_max.
INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, Step2PropertyTest,
    testing::Values(Step2Combo{11, BroadcastMode::none}, Step2Combo{11, BroadcastMode::stimuli},
                    Step2Combo{23, BroadcastMode::none}, Step2Combo{23, BroadcastMode::stimuli},
                    Step2Combo{37, BroadcastMode::none}, Step2Combo{37, BroadcastMode::stimuli},
                    Step2Combo{5, BroadcastMode::none, 1024, 200'000, 0.001},
                    Step2Combo{50, BroadcastMode::none, 1024, 200'000, 0.001},
                    Step2Combo{50, BroadcastMode::stimuli, 1024, 200'000, 0.001}),
    [](const testing::TestParamInfo<Step2Combo>& info) {
        return "seed" + std::to_string(info.param.seed) +
               (info.param.broadcast == BroadcastMode::none ? "_none_" : "_stimuli_") +
               std::to_string(info.param.channels) + "ch";
    });

TEST(Step2, RepackCandidatesAreConsecutiveLatticePoints)
{
    // Regression for the off-lattice sweep start: the re-pack scan must
    // walk consecutive 0.025-lattice multiples of the depth, starting at
    // the first lattice point at or above the area floor — never at the
    // raw floor fraction itself, which drifted the whole grid (and the
    // memo keys it feeds) off-lattice whenever the floor bound.
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const CycleCount depth = 48 * kibi;
    for (const WireCount budget : {6, 12, 24, 96}) {
        const CycleCount beat = depth - 1;
        const std::vector<CycleCount> candidates =
            repack_candidates(tables, depth, budget, beat);
        const double floor_fraction =
            static_cast<double>(tables.total_min_area()) /
            (static_cast<double>(budget) * static_cast<double>(depth));
        auto step = std::max<std::int64_t>(
            2, static_cast<std::int64_t>(std::ceil(floor_fraction / 0.025)));
        for (const CycleCount candidate : candidates) {
            const auto expected = static_cast<CycleCount>(
                static_cast<double>(depth) * (0.025 * static_cast<double>(step)));
            EXPECT_EQ(candidate, expected) << "budget " << budget << " step " << step;
            EXPECT_LT(candidate, beat);
            ++step;
        }
    }
}

TEST(Step2, RepackCandidatesRespectTheIncumbent)
{
    // Depths at or beyond the incumbent cannot improve it and must not
    // be scanned.
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const CycleCount depth = 48 * kibi;
    const CycleCount beat = depth / 2;
    for (const CycleCount candidate : repack_candidates(tables, depth, 24, beat)) {
        EXPECT_LT(candidate, beat);
    }
}

TEST(Step2, RepackQueryRunsNoPassAfterTheWinner)
{
    // One re-pack query of the 512 x 7M cell on a 1000-module
    // wide-shallow SOC: the paper's pass (decreasing k_min, k_min
    // widening) fails, and so does pass 1 (min widening); pass 2
    // (decreasing k_min, always a new group) packs. Passes run in order
    // and stop at the winner, so exactly three run, at any thread count.
    const Soc soc =
        generate_soc(scaled_benchmark_config("gen100x-wide", 1000, ScaledShape::wide_shallow));
    const SocTimeTables tables(soc);
    const CycleCount depth = 7 * mebi * 3 / 8; // lattice point 0.375
    const WireCount budget = 9;

    OptimizeOptions paper_pass;
    paper_pass.budget_search = false; // only the paper's pass
    PackEngine paper(tables, paper_pass);
    EXPECT_FALSE(paper.pack_within(depth, budget).has_value());
    EXPECT_EQ(paper.stats().greedy_passes, 1);

    for (const int threads : {1, 8}) {
        OptimizeOptions options;
        options.threads = threads;
        PackEngine engine(tables, options);
        const std::optional<Architecture> packed = engine.pack_within(depth, budget);
        ASSERT_TRUE(packed.has_value());
        EXPECT_EQ(engine.stats().greedy_passes, 3) << threads << " threads";
        EXPECT_EQ(engine.stats().pack_calls, 1);
    }
}

} // namespace
} // namespace mst
