// Unit and property tests for a module's time-table row: monotone
// effective times (the running minimum of the raw design), minimal-width
// queries, the min-area rectangle and the row extent.
#include <gtest/gtest.h>

#include <algorithm>

#include "arch/channel_group.hpp"
#include "soc/generator.hpp"
#include "wrapper/pareto.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {
namespace {

/// A one-module SOC and its tables: row 0 is the module's staircase.
struct OneModule {
    explicit OneModule(const Module& module) : soc("one", {module}), tables(soc) {}

    [[nodiscard]] WireCount max_width() const { return tables.flat_max_width(0); }
    [[nodiscard]] CycleCount time(WireCount width) const { return tables.time(0, width); }

    Soc soc;
    SocTimeTables tables;
};

TEST(TimeRow, EffectiveTimeIsMonotone)
{
    const OneModule row(Module("m", 10, 8, 2, 30, {25, 17, 9, 5}));
    for (WireCount w = 2; w <= row.max_width(); ++w) {
        EXPECT_LE(row.time(w), row.time(w - 1)) << "w=" << w;
    }
}

TEST(TimeRow, EffectiveTimeNeverExceedsRawDesign)
{
    const Module m("m", 10, 8, 2, 30, {25, 17, 9, 5});
    const OneModule row(m);
    for (WireCount w = 1; w <= row.max_width(); ++w) {
        EXPECT_LE(row.time(w), wrapped_test_time(m, w)) << "w=" << w;
    }
}

TEST(TimeRow, EffectiveTimeIsTheRunningMinimumOfTheRawDesign)
{
    for (const Module& m : {Module("m", 6, 6, 0, 11, {14, 3}),
                            Module("m", 20, 20, 0, 40, {33, 21, 13, 8, 8, 5})}) {
        const OneModule row(m);
        CycleCount best = wrapped_test_time(m, 1);
        for (WireCount w = 1; w <= row.max_width(); ++w) {
            best = std::min(best, wrapped_test_time(m, w));
            EXPECT_EQ(row.time(w), best) << "chains=" << m.scan_chain_count() << " w=" << w;
        }
    }
}

TEST(TimeRow, SaturatesBeyondMaxWidth)
{
    const OneModule row(Module("m", 2, 2, 0, 5, {8}));
    EXPECT_EQ(row.time(row.max_width() + 50), row.time(row.max_width()));
}

TEST(TimeRow, MinWidthIsMinimal)
{
    const OneModule row(Module("m", 10, 8, 2, 30, {25, 17, 9, 5}));
    for (const CycleCount depth : {CycleCount{200}, CycleCount{400}, CycleCount{900},
                                   CycleCount{1'500}, CycleCount{100'000}}) {
        const auto width = row.tables.min_width_for(0, depth);
        if (!width) {
            EXPECT_GT(row.time(row.max_width()), depth);
            continue;
        }
        EXPECT_LE(row.time(*width), depth);
        if (*width > 1) {
            EXPECT_GT(row.time(*width - 1), depth) << "depth=" << depth;
        }
    }
}

TEST(TimeRow, ImpossibleDepthReturnsNullopt)
{
    const OneModule row(Module("m", 1, 1, 0, 100, {50}));
    EXPECT_FALSE(row.tables.min_width_for(0, 10).has_value());
}

TEST(TimeRow, MinAreaIsALowerEnvelope)
{
    const Module m("m", 20, 20, 0, 40, {33, 21, 13, 8, 8, 5});
    const OneModule row(m);
    for (WireCount w = 1; w <= row.max_width(); ++w) {
        EXPECT_LE(row.tables.min_area(0), static_cast<CycleCount>(w) * wrapped_test_time(m, w));
    }
    EXPECT_EQ(row.tables.total_min_area(), row.tables.min_area(0));
}

TEST(TimeRow, ExtentIsTheSaturationWidth)
{
    // Four chains, longest 25, 56 flip-flops: saturated once w >= 4 and
    // both water-fill ceilings ceil((56 + 12) / w), ceil((56 + 10) / w)
    // have sunk to 25, i.e. at w = 3 -> max(4, 3, 3) = 4.
    EXPECT_EQ(table_extent(Module("m", 10, 8, 2, 30, {25, 17, 9, 5})), 4);
    // No scan chains: every functional cell may get its own wire.
    EXPECT_EQ(table_extent(Module("m", 64, 60, 0, 10, {})), 64);
}

TEST(TimeRow, CapsExtremeWidths)
{
    const Module m("m", 2000, 2000, 0, 3, {});
    EXPECT_EQ(table_extent(m), width_cap);
    EXPECT_EQ(OneModule(m).max_width(), width_cap);
}

/// Property sweep: monotonicity and minimal-width consistency over the
/// random module population.
class ParetoPropertyTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ParetoPropertyTest, StaircaseInvariants)
{
    const Soc soc = random_soc(GetParam(), 6);
    const SocTimeTables tables(soc);
    for (int m = 0; m < tables.module_count(); ++m) {
        const WireCount widths = tables.flat_max_width(m);
        for (WireCount w = 2; w <= widths; ++w) {
            ASSERT_LE(tables.time(m, w), tables.time(m, w - 1))
                << soc.module(m).name() << " w=" << w;
        }
        // Brute-force check of min_width_for on a mid-range depth.
        const CycleCount depth = (tables.time(m, 1) + tables.time(m, widths)) / 2;
        const auto width = tables.min_width_for(m, depth);
        ASSERT_TRUE(width.has_value());
        WireCount brute = 1;
        while (tables.time(m, brute) > depth) {
            ++brute;
        }
        EXPECT_EQ(*width, brute) << soc.module(m).name();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoPropertyTest,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

} // namespace
} // namespace mst
