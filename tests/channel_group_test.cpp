// Unit tests for SocTimeTables and ChannelGroup: fills, widening, the
// minimal-widening query, and the table set's once-built module orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "shm/store.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"
#include "soc/soc.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {
namespace {

Soc two_module_soc()
{
    return Soc("duo", {Module("a", 2, 2, 0, 10, {12, 8}),
                       Module("b", 4, 4, 0, 20, {30, 10, 10})});
}

TEST(SocTimeTables, OneTablePerModule)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    EXPECT_EQ(tables.module_count(), 2);
    EXPECT_EQ(&tables.soc(), &soc);
    for (int m = 0; m < tables.module_count(); ++m) {
        EXPECT_EQ(tables.flat_max_width(m), table_extent(soc.module(m)));
    }
}

TEST(ChannelGroup, RejectsNonPositiveWidth)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    EXPECT_THROW((void)ChannelGroup(0, tables), ValidationError);
}

TEST(ChannelGroup, FillAccumulatesMemberTimes)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(2, tables);
    EXPECT_EQ(group.fill(), 0);
    group.add_module(0);
    const CycleCount first = tables.time(0, 2);
    EXPECT_EQ(group.fill(), first);
    group.add_module(1);
    EXPECT_EQ(group.fill(), first + tables.time(1, 2));
    EXPECT_EQ(group.fill(), group.fill_at_width(2));
}

TEST(ChannelGroup, FillWithPreviewsWithoutMutating)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(2, tables);
    group.add_module(0);
    const CycleCount before = group.fill();
    const CycleCount preview = group.fill_with(1);
    EXPECT_EQ(group.fill(), before);
    EXPECT_EQ(preview, before + tables.time(1, 2));
}

TEST(ChannelGroup, WideningReWrapsMembers)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(1, tables);
    group.add_module(1);
    const CycleCount narrow_fill = group.fill();
    group.widen(2);
    EXPECT_EQ(group.width(), 3);
    EXPECT_EQ(group.fill(), tables.time(1, 3));
    EXPECT_LT(group.fill(), narrow_fill);
}

TEST(ChannelGroup, WidenRejectsNonPositiveDelta)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(1, tables);
    EXPECT_THROW(group.widen(0), ValidationError);
}

TEST(ChannelGroup, MinWideningFindsSmallestDelta)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(1, tables);
    group.add_module(0);

    // Pick a depth that the 1-wire group cannot host module 1 in, but a
    // wider group can.
    const CycleCount depth = tables.time(0, 2) + tables.time(1, 2);
    if (group.fill_with(1) <= depth) {
        GTEST_SKIP() << "depth choice does not exercise widening on this data";
    }
    const WireCount delta = group.min_widening_for(1, depth, 8);
    ASSERT_GT(delta, 0);
    // Check minimality by construction.
    const WireCount width = group.width() + delta;
    EXPECT_LE(group.fill_at_width(width) + tables.time(1, width), depth);
    if (delta > 1) {
        const WireCount narrower = width - 1;
        EXPECT_GT(group.fill_at_width(narrower) + tables.time(1, narrower), depth);
    }
}

TEST(ChannelGroup, ResetReArmsAPooledGroup)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(2, tables);
    group.add_module(0);
    group.widen(1); // leave staircase state behind
    ASSERT_GT(group.fill(), 0);

    group.reset(4);
    EXPECT_EQ(group.width(), 4);
    EXPECT_EQ(group.fill(), 0);
    EXPECT_TRUE(group.module_indices().empty());
    // A reset group behaves exactly like a freshly constructed one.
    group.add_module(1);
    EXPECT_EQ(group.fill(), tables.time(1, 4));
    EXPECT_EQ(group.fill_at_width(6), tables.time(1, 6));
    EXPECT_THROW(group.reset(0), ValidationError);
}

TEST(SocTimeTables, FlatAccessorsMatchBruteForce)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    for (int m = 0; m < tables.module_count(); ++m) {
        const Module& module = soc.module(m);
        const WireCount widths = tables.flat_max_width(m);
        EXPECT_EQ(tables.volume_bits(m), module.test_data_volume_bits());
        CycleCount best = 0;
        for (WireCount w = 1; w <= widths + 4; ++w) {
            const CycleCount raw = wrapped_test_time(module, std::min(w, widths));
            best = w == 1 ? raw : std::min(best, raw);
            EXPECT_EQ(tables.time(m, w), best) << "m=" << m << " w=" << w;
            CycleCount floor = tables.time(m, widths) * widths;
            for (WireCount v = std::min(w, widths); v <= widths; ++v) {
                floor = std::min(floor, tables.time(m, v) * v);
            }
            EXPECT_EQ(tables.min_area_from(m, w), floor) << "m=" << m << " w=" << w;
        }
        for (const CycleCount depth : {CycleCount{1}, tables.time(m, 1), tables.time(m, 2),
                                       CycleCount{100'000'000}}) {
            std::optional<WireCount> narrowest;
            for (WireCount w = widths; w >= 1 && tables.time(m, w) <= depth; --w) {
                narrowest = w;
            }
            EXPECT_EQ(tables.min_width_for(m, depth), narrowest)
                << "m=" << m << " depth=" << depth;
        }
    }
}

TEST(SocTimeTables, SeededMinWidthSearchMatchesFullSearch)
{
    // The seeded search may start anywhere at or below the true minimal
    // width (PackEngine seeds it from a deeper depth profile) and must
    // land exactly where the full binary search does.
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
        const Soc soc = random_soc(seed, 30);
        const SocTimeTables tables(soc);
        for (int m = 0; m < tables.module_count(); ++m) {
            const WireCount widths = tables.flat_max_width(m);
            for (WireCount w = 1; w <= widths; ++w) {
                for (const CycleCount depth :
                     {tables.time(m, w) - 1, tables.time(m, w), tables.time(m, w) + 1}) {
                    const std::optional<WireCount> full = tables.min_width_for(m, depth);
                    const WireCount seed_limit = full.value_or(widths);
                    for (WireCount from = 1; from <= seed_limit; ++from) {
                        ASSERT_EQ(tables.min_width_for(m, depth, from), full)
                            << "seed " << seed << " m=" << m << " depth=" << depth
                            << " from=" << from;
                    }
                }
            }
        }
    }
}

/// Module indices stably sorted with the greedy orders' comparators:
/// decreasing volume, or decreasing single-wire time; ties by index.
std::vector<int> stable_sorted_modules(const SocTimeTables& tables, bool by_volume)
{
    std::vector<int> indices(static_cast<std::size_t>(tables.module_count()));
    std::iota(indices.begin(), indices.end(), 0);
    if (by_volume) {
        std::stable_sort(indices.begin(), indices.end(), [&](int a, int b) {
            return tables.volume_bits(a) > tables.volume_bits(b);
        });
    } else {
        std::stable_sort(indices.begin(), indices.end(), [&](int a, int b) {
            return tables.time(a, 1) > tables.time(b, 1);
        });
    }
    return indices;
}

void expect_reference_orders(const SocTimeTables& tables, const std::string& label)
{
    EXPECT_EQ(tables.volume_order(), stable_sorted_modules(tables, true)) << label;
    EXPECT_EQ(tables.time_order(), stable_sorted_modules(tables, false)) << label;
    // Built once: every later call reads the same vector.
    EXPECT_EQ(&tables.volume_order(), &tables.volume_order()) << label;
    EXPECT_EQ(&tables.time_order(), &tables.time_order()) << label;
}

TEST(SocTimeTables, ModuleOrdersMatchStableSortOnRandomSocs)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const Soc soc = random_soc(seed, 40);
        const SocTimeTables tables(soc);
        expect_reference_orders(tables, "random_soc seed " + std::to_string(seed));
    }
}

TEST(SocTimeTables, ModuleOrdersMatchStableSortOnBenchmarkSocs)
{
    for (const std::string& name : benchmark_soc_names()) {
        const Soc soc = make_benchmark_soc(name);
        const SocTimeTables tables(soc);
        expect_reference_orders(tables, name);
    }
}

TEST(SocTimeTables, ModuleOrdersMatchStableSortOnScaledShapes)
{
    for (const ScaledShape shape :
         {ScaledShape::classic, ScaledShape::wide_shallow, ScaledShape::narrow_deep}) {
        const Soc soc = generate_soc(scaled_benchmark_config("gen100x", 1000, shape));
        const SocTimeTables tables(soc);
        expect_reference_orders(tables, "shape " + std::to_string(static_cast<int>(shape)));
    }
}

TEST(SocTimeTables, RestoredTablesBuildTheSameOrders)
{
    const Soc soc = make_benchmark_soc("p93791");
    const SocTimeTables built(soc);
    std::unique_ptr<SocTimeTables> restored =
        shm::ShmStore::decode_tables(shm::ShmStore::encode_tables(built), soc);
    ASSERT_NE(restored, nullptr);
    expect_reference_orders(*restored, "restored p93791");
    EXPECT_EQ(restored->volume_order(), built.volume_order());
    EXPECT_EQ(restored->time_order(), built.time_order());

    // A move (as the serve tables cache does with a restored set) carries
    // the built orders along instead of rebuilding them.
    const std::vector<int>* by_volume = &restored->volume_order();
    const SocTimeTables moved(std::move(*restored));
    EXPECT_EQ(&moved.volume_order(), by_volume);
    expect_reference_orders(moved, "moved p93791");
}

TEST(SocTimeTables, ConcurrentFirstCallsShareOneOrder)
{
    const Soc soc = generate_soc(scaled_benchmark_config("gen300x", 3000,
                                                         ScaledShape::narrow_deep));
    const SocTimeTables tables(soc);
    constexpr int threads = 8;
    std::vector<const std::vector<int>*> by_volume(threads, nullptr);
    std::vector<const std::vector<int>*> by_time(threads, nullptr);
    std::atomic<int> ready{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            // Start together, so the first calls race.
            ready.fetch_add(1);
            while (ready.load() < threads) {
                std::this_thread::yield();
            }
            // Half the threads ask for the time order first.
            if (t % 2 == 0) {
                by_volume[t] = &tables.volume_order();
                by_time[t] = &tables.time_order();
            } else {
                by_time[t] = &tables.time_order();
                by_volume[t] = &tables.volume_order();
            }
        });
    }
    for (std::thread& thread : pool) {
        thread.join();
    }
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(by_volume[t], by_volume[0]) << "thread " << t;
        EXPECT_EQ(by_time[t], by_time[0]) << "thread " << t;
    }
    EXPECT_EQ(*by_volume[0], stable_sorted_modules(tables, true));
    EXPECT_EQ(*by_time[0], stable_sorted_modules(tables, false));
}

TEST(ChannelGroup, MinWideningReturnsZeroWhenHopeless)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(1, tables);
    group.add_module(0);
    EXPECT_EQ(group.min_widening_for(1, 1, 4), 0); // depth of 1 cycle: impossible
    EXPECT_EQ(group.min_widening_for(1, 1'000'000, 0), 0); // no headroom allowed
}

} // namespace
} // namespace mst
