// Property tests for the incremental packing core.
//
// The staircase-cached ChannelGroup and the gallop + binary-search
// min_widening_for are pure accelerations: every answer must equal what
// the recomputing seed code produced. Two properties pin that:
//
//   1. After any randomized add/widen sequence, a group's incremental
//      state (fill, fill_at_width over a width sweep) equals a
//      from-scratch recompute over its member list — including widths
//      past every member's table, where the staircase saturates.
//   2. min_widening_for equals an in-test linear reference scan on
//      random SOCs, for random (depth, max_extra) queries — including
//      saturated groups where both must report "no delta works".
//
//   3. BestFitIndex::best_fit returns the group the dense best-fit scan
//      returns (smallest resulting fill, lowest index on ties), after
//      randomized add-group / add-module / widen sequences and in the
//      hand-built corner cases: equal fills inside one width class,
//      equal resulting fills across two classes, a class emptied by a
//      widening, and no fitting group.
//
// The Architecture running aggregates (total wires/fill, dense group
// mirrors) ride along: validate() cross-checks them against the group
// list, and the sweep below asserts them directly after every mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "arch/architecture.hpp"
#include "arch/best_fit_index.hpp"
#include "common/rng.hpp"
#include "soc/generator.hpp"

namespace mst {
namespace {

/// From-scratch fill of `modules` at `width`: the seed semantics.
CycleCount reference_fill(const SocTimeTables& tables, const std::vector<int>& modules,
                          WireCount width)
{
    CycleCount total = 0;
    for (const int module_index : modules) {
        total += tables.time(module_index, width);
    }
    return total;
}

/// The seed's linear min_widening_for scan, kept verbatim as the
/// reference the gallop + binary search must reproduce.
WireCount reference_min_widening(const SocTimeTables& tables, const std::vector<int>& modules,
                                 WireCount width, int module_index, CycleCount depth,
                                 WireCount max_extra)
{
    for (WireCount delta = 1; delta <= max_extra; ++delta) {
        const WireCount candidate = width + delta;
        const CycleCount members = reference_fill(tables, modules, candidate);
        const CycleCount added = tables.time(module_index, candidate);
        if (members + added <= depth) {
            return delta;
        }
    }
    return 0;
}

/// The greedy's original dense best-fit scan, kept as the reference the
/// index must reproduce: smallest resulting fill within `depth`, the
/// lowest group index among equal resulting fills.
std::optional<std::size_t> reference_best_fit(const std::vector<CycleCount>& fills,
                                              const std::vector<WireCount>& widths,
                                              const SocTimeTables::TimeRow& row,
                                              CycleCount depth)
{
    std::optional<std::size_t> best;
    CycleCount best_fill = std::numeric_limits<CycleCount>::max();
    for (std::size_t g = 0; g < fills.size(); ++g) {
        const CycleCount fill = fills[g] + row.at_width(widths[g]);
        if (fill > depth) {
            continue;
        }
        if (fill < best_fill) {
            best_fill = fill;
            best = g;
        }
    }
    return best;
}

std::optional<std::size_t> group_of(const std::optional<BestFitIndex::Fit>& fit)
{
    return fit ? std::optional<std::size_t>(fit->group) : std::nullopt;
}

/// A BestFitIndex driven side by side with plain fill/width arrays, for
/// the hand-built cases that need exact fills.
struct MirroredIndex {
    BestFitIndex index;
    std::vector<CycleCount> fills;
    std::vector<WireCount> widths;

    void add(WireCount width, CycleCount fill)
    {
        index.add_group(fills.size(), width, fill);
        fills.push_back(fill);
        widths.push_back(width);
    }
    void set_fill(std::size_t group, CycleCount fill)
    {
        index.set_fill(group, fill);
        fills[group] = fill;
    }
    void set_group(std::size_t group, WireCount width, CycleCount fill)
    {
        index.set_group(group, width, fill);
        widths[group] = width;
        fills[group] = fill;
    }
    /// The index's answer, asserted equal to the dense scan's.
    std::optional<std::size_t> query(const SocTimeTables::TimeRow& row, CycleCount depth) const
    {
        const std::optional<std::size_t> indexed = group_of(index.best_fit(row, depth));
        EXPECT_EQ(indexed, reference_best_fit(fills, widths, row, depth)) << "depth " << depth;
        return indexed;
    }
};

/// A module of `tables` and two widths at which its times differ.
struct SplitTimes {
    int module_index = -1;
    WireCount narrow = 0;
    WireCount wide = 0;
};

SplitTimes find_split_times(const SocTimeTables& tables)
{
    for (int m = 0; m < tables.module_count(); ++m) {
        for (WireCount w = 2; w <= tables.flat_max_width(m); ++w) {
            if (tables.time(m, w) < tables.time(m, 1)) {
                return {m, 1, w};
            }
        }
    }
    return {};
}

TEST(IncrementalPack, StaircaseMatchesRecomputeAfterRandomizedMutations)
{
    for (const std::uint64_t seed : {11u, 23u, 47u}) {
        const Soc soc = random_soc(test_seeds::incremental_pack + seed, 24);
        const SocTimeTables tables(soc);
        Rng rng(seed);

        Architecture arch(tables);
        const std::size_t group_index =
            arch.add_group(static_cast<WireCount>(rng.uniform_int(1, 4)));
        std::vector<int> members;

        for (int step = 0; step < 60; ++step) {
            const ChannelGroup& group = arch.groups()[group_index];
            if (rng.chance(0.6) && static_cast<int>(members.size()) < soc.module_count()) {
                const int module_index = static_cast<int>(members.size());
                arch.add_module(group_index, module_index);
                members.push_back(module_index);
            } else if (rng.chance(0.5)) {
                arch.widen_group(group_index,
                                 static_cast<WireCount>(rng.uniform_int(1, 3)));
            } else {
                // Interleave queries so the staircase extends mid-sequence
                // and later mutations must keep the cached entries current.
                const auto probe = static_cast<WireCount>(rng.uniform_int(
                    1, static_cast<std::int64_t>(group.width()) + 40));
                ASSERT_EQ(group.fill_at_width(probe), reference_fill(tables, members, probe))
                    << "seed " << seed << " step " << step << " probe width " << probe;
            }

            // Incremental state == from-scratch recompute, every step.
            ASSERT_EQ(group.fill(), reference_fill(tables, members, group.width()))
                << "seed " << seed << " step " << step;
            ASSERT_EQ(arch.total_wires(), group.width());
            ASSERT_EQ(arch.total_fill(), group.fill());
            ASSERT_EQ(arch.group_fills()[group_index], group.fill());
            ASSERT_EQ(arch.group_widths()[group_index], group.width());
        }

        // Full sweep at the end, far past saturation of every member.
        const ChannelGroup& group = arch.groups()[group_index];
        WireCount widest_member = 1;
        for (const int module_index : members) {
            widest_member = std::max(widest_member, tables.flat_max_width(module_index));
        }
        for (WireCount w = 1; w <= widest_member + 8; ++w) {
            ASSERT_EQ(group.fill_at_width(w), reference_fill(tables, members, w))
                << "seed " << seed << " width " << w;
        }
    }
}

TEST(IncrementalPack, GallopMinWideningMatchesLinearReference)
{
    int widenings_exercised = 0;
    for (const std::uint64_t seed : {3u, 5u, 9u, 17u}) {
        const Soc soc = random_soc(test_seeds::incremental_pack + 100 + seed, 20);
        const SocTimeTables tables(soc);
        Rng rng(seed);

        Architecture arch(tables);
        const std::size_t group_index =
            arch.add_group(static_cast<WireCount>(rng.uniform_int(1, 3)));
        std::vector<int> members;
        for (int m = 0; m < soc.module_count() / 2; ++m) {
            arch.add_module(group_index, m);
            members.push_back(m);
        }
        const ChannelGroup& group = arch.groups()[group_index];

        for (int query = 0; query < 80; ++query) {
            const int candidate =
                static_cast<int>(rng.uniform_int(soc.module_count() / 2,
                                                 soc.module_count() - 1));
            // Depths spread from hopeless to trivial; max_extra spread
            // past every member's table so saturation is exercised.
            const CycleCount base = group.fill_with(candidate);
            const auto depth = static_cast<CycleCount>(
                rng.uniform_int(base / 4, base + base / 4 + 1));
            const auto max_extra = static_cast<WireCount>(rng.uniform_int(0, 600));

            const WireCount gallop = group.min_widening_for(candidate, depth, max_extra);
            const WireCount linear = reference_min_widening(tables, members, group.width(),
                                                            candidate, depth, max_extra);
            ASSERT_EQ(gallop, linear)
                << "seed " << seed << " query " << query << " depth " << depth
                << " max_extra " << max_extra;
            if (gallop > 0) {
                ++widenings_exercised;
            }
        }
    }
    // The query mix must actually exercise feasible widenings, not just
    // the zero path.
    EXPECT_GT(widenings_exercised, 20);
}

TEST(IncrementalPack, CopiesDropTheCacheButKeepTheAnswers)
{
    const Soc soc = random_soc(test_seeds::incremental_pack + 7, 12);
    const SocTimeTables tables(soc);

    Architecture arch(tables);
    const std::size_t group_index = arch.add_group(2);
    std::vector<int> members;
    for (int m = 0; m < soc.module_count(); ++m) {
        arch.add_module(group_index, m);
        members.push_back(m);
    }
    // Warm the staircase, then copy: the copy must answer identically
    // from a cold cache.
    const ChannelGroup& original = arch.groups()[group_index];
    (void)original.fill_at_width(original.width() + 24);
    const Architecture copy = arch;
    const ChannelGroup& copied = copy.groups()[group_index];
    for (WireCount w = 1; w <= original.width() + 30; ++w) {
        ASSERT_EQ(copied.fill_at_width(w), original.fill_at_width(w)) << "width " << w;
        ASSERT_EQ(copied.fill_at_width(w), reference_fill(tables, members, w)) << "width " << w;
    }
    ASSERT_EQ(copy.total_fill(), arch.total_fill());
    ASSERT_EQ(copy.total_wires(), arch.total_wires());
}

TEST(IncrementalPack, BestFitIndexMatchesDenseScanAfterRandomizedMutations)
{
    int fitted = 0;
    int unfitted = 0;
    int emptied_classes = 0;
    for (const std::uint64_t seed : {2u, 13u, 31u, 61u}) {
        const Soc soc = random_soc(test_seeds::incremental_pack + 200 + seed, 160);
        const SocTimeTables tables(soc);
        Rng rng(seed);

        Architecture arch(tables);
        BestFitIndex index;
        int next_module = 0;
        for (int step = 0; step < 400 && next_module < soc.module_count(); ++step) {
            const double roll = static_cast<double>(rng.uniform_int(0, 99)) / 100.0;
            if (arch.groups().empty() || roll < 0.15) {
                // Narrow widths, so several groups share a width class.
                const auto width = static_cast<WireCount>(rng.uniform_int(1, 4));
                const std::size_t g = arch.add_group(width);
                index.add_group(g, width, arch.group_fills()[g]);
            } else if (roll < 0.55) {
                const auto g = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(arch.groups().size()) - 1));
                arch.add_module(g, next_module++);
                index.set_fill(g, arch.group_fills()[g]);
            } else if (roll < 0.7) {
                const auto g = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(arch.groups().size()) - 1));
                const std::size_t classes_before = index.width_classes();
                arch.widen_group(g, static_cast<WireCount>(rng.uniform_int(1, 3)));
                index.set_group(g, arch.group_widths()[g], arch.group_fills()[g]);
                if (index.width_classes() < classes_before) {
                    ++emptied_classes;
                }
            } else {
                const SocTimeTables::TimeRow row = tables.time_row(next_module);
                // Depths from "nothing fits" to "everything fits".
                const CycleCount largest = *std::max_element(arch.group_fills().begin(),
                                                             arch.group_fills().end()) +
                                           row.at_width(1);
                const auto depth =
                    static_cast<CycleCount>(rng.uniform_int(0, largest + largest / 8));
                const std::optional<BestFitIndex::Fit> fit = index.best_fit(row, depth);
                ASSERT_EQ(group_of(fit), reference_best_fit(arch.group_fills(),
                                                            arch.group_widths(), row, depth))
                    << "seed " << seed << " step " << step << " depth " << depth;
                if (!fit) {
                    ++unfitted;
                    continue;
                }
                ++fitted;
                if (rng.chance(0.5)) {
                    // Place the module as the greedy pass does.
                    arch.add_module(fit->group, next_module++);
                    index.place(*fit);
                    ASSERT_EQ(arch.group_fills()[fit->group], fit->fill)
                        << "seed " << seed << " step " << step;
                }
            }
        }
    }
    // The mix must exercise both answers and classes emptied by a widen.
    EXPECT_GT(fitted, 50);
    EXPECT_GT(unfitted, 20);
    EXPECT_GT(emptied_classes, 3);
}

TEST(IncrementalPack, BestFitIndexBreaksEqualFillsInsideAClassByLowestIndex)
{
    const Soc soc = random_soc(test_seeds::incremental_pack + 300, 8);
    const SocTimeTables tables(soc);
    const SocTimeTables::TimeRow row = tables.time_row(0);
    const CycleCount depth = std::numeric_limits<CycleCount>::max() / 2;

    MirroredIndex mirrored;
    for (int g = 0; g < 5; ++g) {
        mirrored.add(3, 100);
    }
    EXPECT_EQ(mirrored.query(row, depth), std::optional<std::size_t>(0));
    mirrored.set_fill(0, 150);
    EXPECT_EQ(mirrored.query(row, depth), std::optional<std::size_t>(1));
    mirrored.set_fill(1, 150);
    mirrored.set_fill(2, 150);
    EXPECT_EQ(mirrored.query(row, depth), std::optional<std::size_t>(3));
    mirrored.set_fill(3, 150);
    mirrored.set_fill(4, 150);
    EXPECT_EQ(mirrored.query(row, depth), std::optional<std::size_t>(0));
}

TEST(IncrementalPack, BestFitIndexBreaksEqualResultingFillsAcrossClassesByLowestIndex)
{
    const Soc soc = random_soc(test_seeds::incremental_pack + 301, 8);
    const SocTimeTables tables(soc);
    const SplitTimes split = find_split_times(tables);
    ASSERT_GE(split.module_index, 0);
    const SocTimeTables::TimeRow row = tables.time_row(split.module_index);
    const CycleCount gap = row.at_width(split.narrow) - row.at_width(split.wide);
    const CycleCount base = 1000;
    const CycleCount resulting = base + row.at_width(split.narrow);

    // The wide group has the larger fill but the same resulting fill; as
    // the lower index it must win, and win again in the mirrored layout.
    MirroredIndex wide_first;
    wide_first.add(split.wide, base + gap);
    wide_first.add(split.narrow, base);
    EXPECT_EQ(wide_first.query(row, resulting), std::optional<std::size_t>(0));

    MirroredIndex narrow_first;
    narrow_first.add(split.narrow, base);
    narrow_first.add(split.wide, base + gap);
    EXPECT_EQ(narrow_first.query(row, resulting), std::optional<std::size_t>(0));

    // One cycle less than the tie: neither fits.
    EXPECT_EQ(narrow_first.query(row, resulting - 1), std::nullopt);
}

TEST(IncrementalPack, BestFitIndexDropsAClassEmptiedByAWidening)
{
    const Soc soc = random_soc(test_seeds::incremental_pack + 302, 8);
    const SocTimeTables tables(soc);
    const SocTimeTables::TimeRow row = tables.time_row(1);
    const CycleCount depth = std::numeric_limits<CycleCount>::max() / 2;

    MirroredIndex mirrored;
    mirrored.add(2, 10);
    mirrored.add(4, 500);
    mirrored.add(4, 400);
    EXPECT_EQ(mirrored.index.width_classes(), 2u);
    mirrored.query(row, depth);

    // Widening the only width-2 group empties its class.
    mirrored.set_group(0, 4, 900);
    EXPECT_EQ(mirrored.index.width_classes(), 1u);
    EXPECT_EQ(mirrored.query(row, depth), std::optional<std::size_t>(2));

    // The class comes back when a group of that width is added again.
    mirrored.add(2, 0);
    EXPECT_EQ(mirrored.index.width_classes(), 2u);
    mirrored.query(row, depth);

    // clear() forgets everything; the index is reusable afterwards.
    mirrored.index.clear();
    EXPECT_EQ(mirrored.index.width_classes(), 0u);
    EXPECT_EQ(group_of(mirrored.index.best_fit(row, depth)), std::nullopt);
    mirrored.index.add_group(0, 4, 7);
    EXPECT_EQ(group_of(mirrored.index.best_fit(row, depth)), std::optional<std::size_t>(0));
}

TEST(IncrementalPack, BestFitIndexReportsNoFittingGroup)
{
    const Soc soc = random_soc(test_seeds::incremental_pack + 303, 8);
    const SocTimeTables tables(soc);
    const SocTimeTables::TimeRow row = tables.time_row(2);

    MirroredIndex mirrored;
    EXPECT_EQ(mirrored.query(row, 1 << 20), std::nullopt); // no groups at all
    mirrored.add(1, 300);
    mirrored.add(2, 200);
    mirrored.add(5, 100);
    CycleCount tightest = std::numeric_limits<CycleCount>::max();
    for (std::size_t g = 0; g < mirrored.fills.size(); ++g) {
        tightest = std::min(tightest, mirrored.fills[g] + row.at_width(mirrored.widths[g]));
    }
    EXPECT_EQ(mirrored.query(row, tightest - 1), std::nullopt);
    EXPECT_TRUE(mirrored.query(row, tightest).has_value());
}

} // namespace
} // namespace mst
