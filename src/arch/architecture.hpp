// The per-site test architecture: a set of channel groups covering all
// modules of the SOC, plus the derived quantities (channel count, test
// time, free vector memory) the two-step algorithm reasons about.
//
// The architecture owns its groups and maintains running aggregates
// (total wires, total fill) across every mutation, so the greedy
// packing's per-module bookkeeping is O(1) instead of O(groups). All
// mutations therefore go through the Architecture itself (add_group /
// add_module / widen_group); the group list is only readable from
// outside. reset() re-arms an instance for another greedy pass while
// keeping the heap buffers of retired groups — the backbone of
// PackEngine's allocation-free PackScratch reuse.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "arch/channel_group.hpp"
#include "ate/ate.hpp"
#include "common/types.hpp"
#include "throughput/model.hpp"

namespace mst {

/// A complete single-site architecture.
class Architecture {
public:
    explicit Architecture(const SocTimeTables& tables) : tables_(&tables) {}

    /// Copies carry the active groups and aggregates; the spare-group
    /// pool stays behind (it is scratch, not state).
    Architecture(const Architecture& other);
    Architecture& operator=(const Architecture& other);
    Architecture(Architecture&&) noexcept = default;
    Architecture& operator=(Architecture&&) noexcept = default;

    [[nodiscard]] const SocTimeTables& tables() const noexcept { return *tables_; }
    [[nodiscard]] const std::vector<ChannelGroup>& groups() const noexcept { return groups_; }

    /// Dense mirrors of the per-group fills and widths, maintained by
    /// every mutation. The greedy's per-group scan (expansion
    /// enumeration) walks these flat arrays instead of striding over the
    /// ChannelGroup objects.
    [[nodiscard]] const std::vector<CycleCount>& group_fills() const noexcept
    {
        return group_fills_;
    }
    [[nodiscard]] const std::vector<WireCount>& group_widths() const noexcept
    {
        return group_widths_;
    }

    /// Total TAM wires over all groups (running aggregate, O(1)).
    [[nodiscard]] WireCount total_wires() const noexcept { return total_wires_; }

    /// Sum of all group fills (running aggregate, O(1)): the greedy's
    /// free-memory selection metric reads this once per alternative
    /// instead of re-summing every group per placed module.
    [[nodiscard]] CycleCount total_fill() const noexcept { return total_fill_; }

    /// ATE channels consumed by one site: k = 2 * total wires.
    [[nodiscard]] ChannelCount channels() const noexcept
    {
        return channels_from_wires(total_wires());
    }

    /// SOC test length in cycles: the maximum group fill (groups run in
    /// parallel; members of a group run serially).
    [[nodiscard]] CycleCount test_cycles() const noexcept;

    /// Unused vector memory summed over all used channels:
    /// depth * wires - sum of fills (in wire-cycles). Step 1's
    /// option-selection metric ("total free memory"). O(1) from the
    /// running aggregates.
    [[nodiscard]] CycleCount free_memory(CycleCount depth) const noexcept
    {
        return depth * static_cast<CycleCount>(total_wires_) - total_fill_;
    }

    /// Append a group of `width` wires (reusing a pooled group's heap
    /// buffers when one is available) and return its index.
    std::size_t add_group(WireCount width);

    /// Add a module to group `group_index` at its current width.
    /// Inline: this is the single most frequent mutation of a greedy
    /// pass (once per module placement).
    void add_module(std::size_t group_index, int module_index)
    {
        ChannelGroup& group = groups_[group_index];
        const CycleCount before = group.fill();
        group.add_module(module_index);
        group_fills_[group_index] = group.fill();
        total_fill_ += group.fill() - before;
    }

    /// Append a group of `width` wires holding `members` modules, the
    /// indices `next()` returns in member order, built in one step
    /// (ChannelGroup::add_modules): the state add_group and add_module
    /// per index leave. Returns the group's index.
    template <class NextIndex>
    std::size_t add_group(WireCount width, std::size_t members, NextIndex next)
    {
        const std::size_t index = add_group(width);
        ChannelGroup& group = groups_[index];
        group.add_modules(members, next);
        group_fills_[index] = group.fill();
        total_fill_ += group.fill();
        return index;
    }

    /// The groups, moved out: the architecture is spent.
    [[nodiscard]] std::vector<ChannelGroup> release_groups() && noexcept
    {
        return std::move(groups_);
    }

    /// Grow group `group_index`; members are re-wrapped at the new width.
    void widen_group(std::size_t group_index, WireCount extra_wires);

    /// Retire every group into the spare pool and zero the aggregates:
    /// ready for the next greedy pass without freeing a single buffer.
    void reset() noexcept;

    /// Step 2's redistribution move: add one wire to the group with the
    /// largest fill, provided that group can still reduce its fill with
    /// at most `spare` additional wires (the time staircase may need
    /// several wires per step). Returns the widened group's index, or
    /// nullopt — leaving the architecture unchanged — when the
    /// bottleneck is saturated, so the caller stops handing out channels
    /// that cannot buy time.
    std::optional<std::size_t> add_wire_to_bottleneck(WireCount spare);

    /// Channel-compaction pass: repeatedly try to delete a group by
    /// relocating all its modules into the remaining groups (re-wrapped
    /// at their widths) without exceeding `depth`. Narrowest groups are
    /// attacked first; every deletion saves the group's wires. Returns
    /// the number of wires saved. Used by Step 1 to tighten the greedy
    /// packing (criterion 1).
    WireCount compact(CycleCount depth);

    /// Check all structural invariants: every module in exactly one
    /// group, each group fill within `depth`, channels within `ate`
    /// budget, running aggregates in sync with the groups. Throws
    /// ValidationError on violation.
    void validate(const AteSpec& ate) const;

private:
    const SocTimeTables* tables_;
    std::vector<ChannelGroup> groups_;
    std::vector<ChannelGroup> spare_; ///< retired groups, buffers kept warm
    std::vector<CycleCount> group_fills_;
    std::vector<WireCount> group_widths_;
    WireCount total_wires_ = 0;
    CycleCount total_fill_ = 0;
};

/// Maximum sites n_max for a per-site channel count k on an ATE with K
/// channels (Section 6 Step 1):
///  - without broadcast every site needs k private channels:  n <= K / k;
///  - with stimuli broadcast the k/2 stimulus channels are shared and
///    only the k/2 response channels are per-site: (n+1) * k/2 <= K.
[[nodiscard]] SiteCount max_sites(ChannelCount per_site_channels,
                                  ChannelCount ate_channels,
                                  BroadcastMode broadcast) noexcept;

/// Largest per-site channel count usable with n sites on K channels
/// (inverse of max_sites; always even).
[[nodiscard]] ChannelCount per_site_channel_budget(SiteCount sites,
                                                   ChannelCount ate_channels,
                                                   BroadcastMode broadcast) noexcept;

} // namespace mst
