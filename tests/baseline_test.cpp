// Unit tests for the Iyengar et al. [7] baseline: module rectangles,
// the channel lower bound, and the bin-packing heuristic.
#include <gtest/gtest.h>

#include "baseline/bin_packing.hpp"
#include "baseline/lower_bound.hpp"
#include "baseline/rectangle.hpp"
#include "common/error.hpp"
#include "core/step1.hpp"
#include "soc/d695.hpp"
#include "soc/generator.hpp"

namespace mst {
namespace {

AteSpec ate_spec(ChannelCount channels, CycleCount depth)
{
    AteSpec ate;
    ate.channels = channels;
    ate.vector_memory_depth = depth;
    return ate;
}

TEST(Rectangles, NarrowestFitSelectsMinimalWidths)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const auto rectangles = narrowest_fitting_rectangles(tables, 48 * kibi);
    ASSERT_TRUE(rectangles.has_value());
    ASSERT_EQ(rectangles->size(), static_cast<std::size_t>(soc.module_count()));
    for (const ModuleRectangle& rect : *rectangles) {
        EXPECT_EQ(rect.width, tables.min_width_for(rect.module_index, 48 * kibi).value());
        EXPECT_EQ(rect.height, tables.time(rect.module_index, rect.width));
        EXPECT_LE(rect.height, 48 * kibi);
        EXPECT_EQ(rect.area(), static_cast<CycleCount>(rect.width) * rect.height);
    }
}

TEST(Rectangles, ImpossibleDepthYieldsNullopt)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    EXPECT_FALSE(narrowest_fitting_rectangles(tables, 100).has_value());
}

TEST(LowerBound, DominatedByWidestModuleOrArea)
{
    const Soc soc("pair", {Module("big", 2, 2, 0, 100, {64, 64, 64, 64}),
                           Module("small", 1, 1, 0, 10, {8})});
    const SocTimeTables tables(soc);
    // Large depth: area bound collapses to 1 wire but the big module
    // still needs at least one; LB >= 1.
    const auto wide = lower_bound_wires(tables, 10'000'000);
    ASSERT_TRUE(wide.has_value());
    EXPECT_EQ(*wide, 1);
    // Tight depth: the widest-module term takes over.
    const CycleCount tight = tables.time(0, 2) + 1;
    const auto lb = lower_bound_wires(tables, tight);
    ASSERT_TRUE(lb.has_value());
    EXPECT_GE(*lb, 2);
}

TEST(LowerBound, ChannelsAreTwiceWires)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const auto wires = lower_bound_wires(tables, 48 * kibi);
    const auto channels = lower_bound_channels(tables, 48 * kibi);
    ASSERT_TRUE(wires && channels);
    EXPECT_EQ(*channels, 2 * *wires);
}

TEST(LowerBound, NulloptWhenUntestable)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    EXPECT_FALSE(lower_bound_wires(tables, 100).has_value());
    EXPECT_FALSE(lower_bound_channels(tables, 100).has_value());
}

TEST(BinPacking, RespectsDepthAndChannels)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const AteSpec ate = ate_spec(256, 48 * kibi);
    const BaselineResult result = pack_rectangles(tables, ate, BroadcastMode::stimuli);
    EXPECT_LE(result.test_cycles, ate.vector_memory_depth);
    EXPECT_LE(result.channels, ate.channels);
    EXPECT_EQ(result.channels % 2, 0);
    EXPECT_GT(result.columns, 0);
    EXPECT_GE(result.max_sites, 1);
}

TEST(BinPacking, NeverBeatsTheLowerBound)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    for (const CycleCount depth : {48 * kibi, 64 * kibi, 96 * kibi, 128 * kibi}) {
        const auto lb = lower_bound_channels(tables, depth);
        ASSERT_TRUE(lb.has_value());
        const BaselineResult result =
            pack_rectangles(tables, ate_spec(256, depth), BroadcastMode::stimuli);
        EXPECT_GE(result.channels, *lb) << "depth=" << depth;
    }
}

TEST(BinPacking, ThrowsWhenUntestable)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    EXPECT_THROW((void)pack_rectangles(tables, ate_spec(256, 100), BroadcastMode::stimuli),
                 InfeasibleError);
}

TEST(BinPacking, ThrowsWhenChannelsExhausted)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    EXPECT_THROW((void)pack_rectangles(tables, ate_spec(8, 48 * kibi), BroadcastMode::stimuli),
                 InfeasibleError);
}

TEST(BinPacking, MoreDepthNeverNeedsMoreChannelsOnD695)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    ChannelCount previous = 1 << 30;
    for (CycleCount depth = 48 * kibi; depth <= 128 * kibi; depth += 8 * kibi) {
        const BaselineResult result =
            pack_rectangles(tables, ate_spec(256, depth), BroadcastMode::stimuli);
        EXPECT_LE(result.channels, previous) << "depth=" << depth;
        previous = result.channels;
    }
}

/// Property sweep: on random SOCs, both heuristics respect the lower
/// bound, and the paper's Step 1 is competitive with the baseline.
class BaselinePropertyTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselinePropertyTest, OrderingInvariants)
{
    const Soc soc = random_soc(GetParam(), 9);
    const SocTimeTables tables(soc);
    const AteSpec ate = ate_spec(256, 70'000);

    const auto lb = lower_bound_channels(tables, ate.vector_memory_depth);
    if (!lb) {
        GTEST_SKIP() << "SOC untestable at this depth (legal outcome)";
    }
    const BaselineResult baseline = pack_rectangles(tables, ate, BroadcastMode::stimuli);
    OptimizeOptions options;
    options.broadcast = BroadcastMode::stimuli;
    const Step1Result ours = run_step1(tables, ate, options);

    EXPECT_GE(baseline.channels, *lb);
    EXPECT_GE(ours.channels, *lb);
    // Step 1 should not lose badly to the baseline (allow 4 channels of
    // slack: both are heuristics).
    EXPECT_LE(ours.channels, baseline.channels + 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselinePropertyTest,
                         testing::Values(101u, 202u, 303u, 404u, 505u, 606u, 707u, 808u));

} // namespace
} // namespace mst
