// Exhaustive cross-check of the fast wrapper-time path: the loads-only
// WrapperTimeCalculator and the bound-pruned TableBuild::fast tables
// must be byte-identical to the full design_wrapper reference at every
// width, and the flat tables must survive the shared-memory codec.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "shm/segment.hpp"
#include "shm/store.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"
#include "wrapper/pareto.hpp"
#include "wrapper/time_calculator.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {
namespace {

void expect_calculator_matches_reference(const Module& module)
{
    const WrapperTimeCalculator calculator(module);
    const WireCount limit = std::min(module.max_useful_width(), width_cap);
    for (WireCount w = 1; w <= limit; ++w) {
        ASSERT_EQ(calculator.time(w), wrapped_test_time(module, w))
            << "module '" << module.name() << "' at width " << w;
    }
    // Beyond the useful width the time must saturate, not change.
    EXPECT_EQ(calculator.time(limit + 7), wrapped_test_time(module, limit + 7))
        << "module '" << module.name() << "' beyond max useful width";
}

TEST(WrapperTimeCalculator, MatchesDesignWrapperOnBenchmarkSocs)
{
    for (const std::string& name : {"d695", "p22810", "p34392"}) {
        const Soc soc = make_benchmark_soc(name);
        for (const Module& module : soc.modules()) {
            expect_calculator_matches_reference(module);
        }
    }
}

TEST(WrapperTimeCalculator, MatchesDesignWrapperOnRandomSocs)
{
    for (const std::uint64_t seed : test_seeds::property_cases) {
        const Soc soc = random_soc(seed, 10);
        for (const Module& module : soc.modules()) {
            expect_calculator_matches_reference(module);
        }
    }
}

TEST(WrapperTimeCalculator, HandlesDegenerateModules)
{
    // No scan chains at all (memory-interface style module).
    const Module combinational("comb", 17, 9, 3, 250, {});
    expect_calculator_matches_reference(combinational);

    // Scan chains but no functional terminals on one side.
    const Module no_outputs("no_out", 12, 0, 0, 50, {100, 80, 3});
    expect_calculator_matches_reference(no_outputs);

    // One long chain dominating many short ones.
    const Module skewed("skewed", 4, 4, 0, 10, {5000, 1, 1, 1, 1, 1, 1, 1});
    expect_calculator_matches_reference(skewed);

    EXPECT_THROW((void)WrapperTimeCalculator(combinational).time(0), ValidationError);
}

/// Whole-SOC cases for the table-build checks: every ScaledShape preset
/// plus random SOCs and the ITC'02 d695.
std::vector<Soc> table_build_socs()
{
    std::vector<Soc> socs;
    socs.push_back(make_benchmark_soc("d695"));
    for (const ScaledShape shape :
         {ScaledShape::classic, ScaledShape::wide_shallow, ScaledShape::narrow_deep}) {
        socs.push_back(generate_soc(scaled_benchmark_config("preset", 120, shape)));
    }
    for (const std::uint64_t seed : test_seeds::property_cases) {
        socs.push_back(random_soc(seed, 30));
    }
    return socs;
}

/// Entry-for-entry equality of two table sets over the same SOC.
void expect_tables_equal(const SocTimeTables& actual, const SocTimeTables& expected)
{
    const std::string& soc = expected.soc().name();
    ASSERT_EQ(actual.module_count(), expected.module_count()) << soc;
    EXPECT_EQ(actual.total_min_area(), expected.total_min_area()) << soc;
    for (int m = 0; m < expected.module_count(); ++m) {
        ASSERT_EQ(actual.flat_max_width(m), expected.flat_max_width(m)) << soc << " m=" << m;
        EXPECT_EQ(actual.volume_bits(m), expected.volume_bits(m)) << soc << " m=" << m;
        for (WireCount w = 1; w <= expected.flat_max_width(m); ++w) {
            ASSERT_EQ(actual.time(m, w), expected.time(m, w)) << soc << " m=" << m << " w=" << w;
            ASSERT_EQ(actual.min_area_from(m, w), expected.min_area_from(m, w))
                << soc << " m=" << m << " w=" << w;
        }
    }
}

TEST(SocTimeTables, PrunedFastBuildEqualsReferenceBuild)
{
    // The fast build skips widths by closed-form bounds; the reference
    // evaluates design_wrapper at every width. Extents, times and suffix
    // areas must all agree, at any thread count.
    for (const Soc& soc : table_build_socs()) {
        const SocTimeTables reference(soc, TableBuild::reference);
        expect_tables_equal(SocTimeTables(soc, TableBuild::fast, 1), reference);
        expect_tables_equal(SocTimeTables(soc, TableBuild::fast, 4), reference);
    }
}

TEST(SocTimeTables, ExtentsAreTheSaturationWidths)
{
    for (const Soc& soc : table_build_socs()) {
        const SocTimeTables tables(soc);
        for (int m = 0; m < tables.module_count(); ++m) {
            ASSERT_EQ(tables.flat_max_width(m), table_extent(soc.module(m)))
                << soc.name() << " m=" << m;
        }
    }
}

TEST(SocTimeTables, ShmCodecRoundTripsTheFlatTables)
{
    for (const Soc& soc : table_build_socs()) {
        const SocTimeTables built(soc);
        const std::string blob = shm::ShmStore::encode_tables(built);
        const std::unique_ptr<SocTimeTables> decoded = shm::ShmStore::decode_tables(blob, soc);
        ASSERT_NE(decoded, nullptr);
        EXPECT_EQ(shm::ShmStore::encode_tables(*decoded), blob) << soc.name();
        expect_tables_equal(*decoded, SocTimeTables(soc));
    }
}

TEST(SocTimeTables, ShmTablesBlobBytesArePinned)
{
    // The blob format is shared with segments written by other builds:
    // the u32 module count, then every row's u64 times back to back,
    // little-endian. These digests pin its bytes.
    const auto digest = [](const std::string& name) {
        const std::string blob = shm::ShmStore::encode_tables(SocTimeTables(make_benchmark_soc(name)));
        return shm::Segment::fnv1a(blob.data(), blob.size());
    };
    EXPECT_EQ(digest("d695"), 0x43ec63505c3eac40ULL);
    EXPECT_EQ(digest("p93791"), 0x70becb392f74aaf7ULL);
}

TEST(SocTimeTables, RestoreRejectsBrokenStaircases)
{
    const Soc soc = make_benchmark_soc("d695");
    const SocTimeTables built(soc);
    const auto restore = [&](TableArray<CycleCount> times) {
        return SocTimeTables(soc, std::move(times));
    };
    TableArray<CycleCount> times;
    for (int m = 0; m < built.module_count(); ++m) {
        for (WireCount w = 1; w <= built.flat_max_width(m); ++w) {
            times.push_back(built.time(m, w));
        }
    }
    expect_tables_equal(restore(times), built);

    // Module 0's row is wider than one entry, so entry 1 is in its row.
    ASSERT_GT(built.flat_max_width(0), 1);
    TableArray<CycleCount> short_by_one = times;
    short_by_one.pop_back();
    EXPECT_THROW((void)restore(short_by_one), ValidationError);
    TableArray<CycleCount> long_by_one = times;
    long_by_one.push_back(long_by_one.back());
    EXPECT_THROW((void)restore(long_by_one), ValidationError);
    TableArray<CycleCount> rising = times;
    rising[1] = rising[0] + 1;
    EXPECT_THROW((void)restore(rising), ValidationError);
    TableArray<CycleCount> zero = times;
    zero.back() = 0;
    EXPECT_THROW((void)restore(zero), ValidationError);
}

TEST(SocTimeTables, TotalMinAreaSumsModuleMinima)
{
    const Soc soc = make_benchmark_soc("d695");
    const SocTimeTables tables(soc);
    CycleCount expected = 0;
    for (int m = 0; m < tables.module_count(); ++m) {
        expected += tables.min_area(m);
    }
    EXPECT_EQ(tables.total_min_area(), expected);
    EXPECT_GT(tables.total_min_area(), 0);
}

TEST(WrapperTimeCalculator, PrunesOnlyWidthsThatCannotBeatTheBest)
{
    // A width is pruned only when its time provably reaches `best`:
    // with best one above the exact time it must be evaluated, exactly.
    std::vector<FlipFlopCount> scratch;
    for (const Soc& soc : table_build_socs()) {
        for (const Module& module : soc.modules()) {
            const WrapperTimeCalculator calculator(module);
            for (WireCount w = 1; w <= table_extent(module); ++w) {
                const CycleCount exact = calculator.time(w);
                ASSERT_EQ(calculator.time_if_can_beat(w, exact + 1, scratch), exact)
                    << soc.name() << " module '" << module.name() << "' at width " << w;
                const std::optional<CycleCount> at_best =
                    calculator.time_if_can_beat(w, exact, scratch);
                ASSERT_TRUE(!at_best || *at_best == exact);
            }
        }
    }
}

} // namespace
} // namespace mst
