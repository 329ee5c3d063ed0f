#include "arch/architecture.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mst {

Architecture::Architecture(const Architecture& other)
    : tables_(other.tables_),
      groups_(other.groups_),
      group_fills_(other.group_fills_),
      group_widths_(other.group_widths_),
      total_wires_(other.total_wires_),
      total_fill_(other.total_fill_)
{
}

Architecture& Architecture::operator=(const Architecture& other)
{
    tables_ = other.tables_;
    // Retired groups in the spare pool are still bound to the previous
    // tables; reviving one after the assignment would compute fills
    // against the wrong SOC. Assignment is cold, so just drop the pool.
    spare_.clear();
    groups_ = other.groups_;
    group_fills_ = other.group_fills_;
    group_widths_ = other.group_widths_;
    total_wires_ = other.total_wires_;
    total_fill_ = other.total_fill_;
    return *this;
}

CycleCount Architecture::test_cycles() const noexcept
{
    CycleCount longest = 0;
    for (const ChannelGroup& group : groups_) {
        longest = std::max(longest, group.fill());
    }
    return longest;
}

std::size_t Architecture::add_group(WireCount width)
{
    if (spare_.empty()) {
        groups_.emplace_back(width, *tables_);
    } else {
        spare_.back().reset(width);
        groups_.push_back(std::move(spare_.back()));
        spare_.pop_back();
    }
    group_fills_.push_back(0);
    group_widths_.push_back(width);
    total_wires_ += width;
    return groups_.size() - 1;
}

void Architecture::widen_group(std::size_t group_index, WireCount extra_wires)
{
    ChannelGroup& group = groups_[group_index];
    total_wires_ += extra_wires;
    total_fill_ -= group.fill();
    group.widen(extra_wires);
    group_fills_[group_index] = group.fill();
    group_widths_[group_index] = group.width();
    total_fill_ += group.fill();
}

void Architecture::reset() noexcept
{
    while (!groups_.empty()) {
        spare_.push_back(std::move(groups_.back()));
        groups_.pop_back();
    }
    group_fills_.clear();
    group_widths_.clear();
    total_wires_ = 0;
    total_fill_ = 0;
}

std::optional<std::size_t> Architecture::add_wire_to_bottleneck(WireCount spare)
{
    if (groups_.empty() || spare < 1) {
        return std::nullopt;
    }
    const auto bottleneck = static_cast<std::size_t>(std::distance(
        groups_.begin(),
        std::max_element(groups_.begin(), groups_.end(),
                         [](const ChannelGroup& a, const ChannelGroup& b) {
                             return a.fill() < b.fill();
                         })));
    ChannelGroup& group = groups_[bottleneck];
    // Monotonicity of the time staircase means: if `spare` extra wires do
    // not lower the fill, no smaller amount does either.
    if (group.fill_at_width(group.width() + spare) >= group.fill()) {
        return std::nullopt;
    }
    widen_group(bottleneck, 1);
    return bottleneck;
}

WireCount Architecture::compact(CycleCount depth)
{
    WireCount saved = 0;
    bool removed = true;
    while (removed && groups_.size() > 1) {
        removed = false;
        // Candidate victims, narrowest first.
        std::vector<std::size_t> victims(groups_.size());
        for (std::size_t i = 0; i < victims.size(); ++i) {
            victims[i] = i;
        }
        std::stable_sort(victims.begin(), victims.end(), [this](std::size_t a, std::size_t b) {
            return groups_[a].width() < groups_[b].width();
        });

        for (const std::size_t victim : victims) {
            std::vector<ChannelGroup> trial;
            trial.reserve(groups_.size() - 1);
            for (std::size_t g = 0; g < groups_.size(); ++g) {
                if (g != victim) {
                    trial.push_back(groups_[g]);
                }
            }
            bool all_relocated = true;
            for (const int module_index : groups_[victim].module_indices()) {
                ChannelGroup* best = nullptr;
                CycleCount best_fill = 0;
                for (ChannelGroup& group : trial) {
                    const CycleCount fill = group.fill_with(module_index);
                    if (fill <= depth && (best == nullptr || fill < best_fill)) {
                        best = &group;
                        best_fill = fill;
                    }
                }
                if (best == nullptr) {
                    all_relocated = false;
                    break;
                }
                best->add_module(module_index);
            }
            if (all_relocated) {
                saved += groups_[victim].width();
                groups_ = std::move(trial);
                // Compaction is cold (once per Step-1 result): one
                // aggregate recompute beats threading deltas through the
                // relocation loop above.
                group_fills_.clear();
                group_widths_.clear();
                total_wires_ = 0;
                total_fill_ = 0;
                for (const ChannelGroup& group : groups_) {
                    group_fills_.push_back(group.fill());
                    group_widths_.push_back(group.width());
                    total_wires_ += group.width();
                    total_fill_ += group.fill();
                }
                removed = true;
                break;
            }
        }
    }
    return saved;
}

void Architecture::validate(const AteSpec& ate) const
{
    std::vector<int> seen(static_cast<std::size_t>(tables_->module_count()), 0);
    WireCount wires = 0;
    CycleCount fills = 0;
    for (const ChannelGroup& group : groups_) {
        if (group.fill() > ate.vector_memory_depth) {
            throw ValidationError("channel group fill exceeds the ATE vector memory depth");
        }
        if (group.fill() != group.fill_at_width(group.width())) {
            throw ValidationError("channel group fill is out of sync with its members");
        }
        wires += group.width();
        fills += group.fill();
        for (const int module_index : group.module_indices()) {
            if (module_index < 0 || module_index >= tables_->module_count()) {
                throw ValidationError("channel group references a module outside the SOC");
            }
            ++seen[static_cast<std::size_t>(module_index)];
        }
    }
    if (wires != total_wires_ || fills != total_fill_) {
        throw ValidationError("architecture running aggregates are out of sync with its groups");
    }
    if (group_fills_.size() != groups_.size() || group_widths_.size() != groups_.size()) {
        throw ValidationError("architecture group mirrors are out of sync with its groups");
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (group_fills_[g] != groups_[g].fill() || group_widths_[g] != groups_[g].width()) {
            throw ValidationError("architecture group mirrors are out of sync with its groups");
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
        if (seen[i] != 1) {
            throw ValidationError("module '" + tables_->soc().module(static_cast<int>(i)).name() +
                                  "' must be assigned to exactly one channel group");
        }
    }
    if (channels() > ate.channels) {
        throw ValidationError("architecture uses more channels than the ATE provides");
    }
}

SiteCount max_sites(ChannelCount per_site_channels,
                    ChannelCount ate_channels,
                    BroadcastMode broadcast) noexcept
{
    if (per_site_channels <= 0 || ate_channels < per_site_channels) {
        return 0;
    }
    if (broadcast == BroadcastMode::stimuli) {
        const ChannelCount half = per_site_channels / 2;
        return static_cast<SiteCount>((ate_channels - half) / half);
    }
    return static_cast<SiteCount>(ate_channels / per_site_channels);
}

ChannelCount per_site_channel_budget(SiteCount sites,
                                     ChannelCount ate_channels,
                                     BroadcastMode broadcast) noexcept
{
    if (sites <= 0) {
        return 0;
    }
    // Wires per site: K/(2n) private, or K/(n+1) when stimuli are shared.
    const WireCount wires = (broadcast == BroadcastMode::stimuli)
                                ? ate_channels / (sites + 1)
                                : ate_channels / (2 * sites);
    return channels_from_wires(wires);
}

} // namespace mst
