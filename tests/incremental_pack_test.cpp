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
// The Architecture running aggregates (total wires/fill, dense group
// mirrors) ride along: validate() cross-checks them against the group
// list, and the sweep below asserts them directly after every mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/architecture.hpp"
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

} // namespace
} // namespace mst
