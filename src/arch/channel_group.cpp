#include "arch/channel_group.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/executor.hpp"
#include "wrapper/erpct.hpp"

namespace mst {

SocTimeTables::SocTimeTables(const Soc& soc, TableBuild build, int threads) : soc_(&soc)
{
    // Every row's extent is known up front, so the flat arrays are sized
    // once and each module's slice is then filled in place by exactly
    // one task: the result is byte-identical at any thread count.
    lay_out_rows();
    times_.resize(offsets_.back());
    const auto build_row = [&](std::size_t m) {
        const std::size_t first = offsets_[m];
        build_time_row(soc.modules()[m], build, offsets_[m + 1] - first, times_.data() + first);
        finish_row(m);
    };
    // The rows are independent, so the build — the dominant cost of a
    // cold optimize call — fans out across the executor. Small fast
    // builds run inline (ITC'02-sized ones finish in well under the
    // fan-out's wake-up cost); reference builds always fan out — each
    // module's exhaustive schedule is expensive at any SOC size, and
    // they are exactly what `bench --compare` times.
    const auto count = static_cast<std::size_t>(module_count());
    constexpr std::size_t parallel_build_threshold = 64;
    if (count < parallel_build_threshold && build == TableBuild::fast) {
        for (std::size_t m = 0; m < count; ++m) {
            build_row(m);
        }
    } else {
        parallel_for_index(count, threads, build_row);
    }
    sum_min_areas();
}

SocTimeTables::SocTimeTables(const Soc& soc, TableArray<CycleCount> times)
    : soc_(&soc), times_(std::move(times))
{
    lay_out_rows();
    if (times_.size() != offsets_.back()) {
        throw ValidationError("restored time tables do not match the SOC's rows");
    }
    // The times come from a checksummed shared-memory blob, so damage is
    // unlikely — but the restore path must never hand the optimizer a
    // table violating the staircase invariants, so check them all.
    const auto count = static_cast<std::size_t>(module_count());
    for (std::size_t m = 0; m < count; ++m) {
        for (std::size_t i = offsets_[m]; i < offsets_[m + 1]; ++i) {
            if (times_[i] <= 0 || (i != offsets_[m] && times_[i] > times_[i - 1])) {
                throw ValidationError("restored time table is not a positive, "
                                      "non-increasing staircase");
            }
        }
        finish_row(m);
    }
    sum_min_areas();
}

void SocTimeTables::lay_out_rows()
{
    const auto count = static_cast<std::size_t>(soc_->module_count());
    offsets_.resize(count + 1);
    for (std::size_t m = 0; m < count; ++m) {
        offsets_[m + 1] =
            offsets_[m] + static_cast<std::size_t>(table_extent(soc_->modules()[m]));
    }
    suffix_min_areas_.resize(offsets_.back());
    volumes_.resize(count);
}

void SocTimeTables::finish_row(std::size_t m)
{
    const std::size_t first = offsets_[m];
    fill_suffix_min_areas(times_.data() + first, offsets_[m + 1] - first,
                          suffix_min_areas_.data() + first);
    volumes_[m] = soc_->modules()[m].test_data_volume_bits();
}

void SocTimeTables::sum_min_areas() noexcept
{
    total_min_area_ = 0;
    for (int m = 0; m < module_count(); ++m) {
        total_min_area_ += min_area(m);
    }
}

namespace {

/// Module indices 0..count-1, stably sorted by `before`: ties keep
/// index order.
template <class Before>
std::vector<int> sorted_modules(int count, Before before)
{
    std::vector<int> indices(static_cast<std::size_t>(count));
    std::iota(indices.begin(), indices.end(), 0);
    std::stable_sort(indices.begin(), indices.end(), before);
    return indices;
}

} // namespace

const std::vector<int>& SocTimeTables::volume_order() const
{
    std::call_once(built_->volume_built, [this] {
        built_->by_volume = sorted_modules(
            module_count(), [this](int a, int b) { return volume_bits(a) > volume_bits(b); });
    });
    return built_->by_volume;
}

const std::vector<int>& SocTimeTables::time_order() const
{
    std::call_once(built_->time_built, [this] {
        built_->by_time = sorted_modules(
            module_count(), [this](int a, int b) { return time(a, 1) > time(b, 1); });
    });
    return built_->by_time;
}

const std::shared_ptr<const ModuleNames>& SocTimeTables::module_names() const
{
    std::call_once(built_->names_built,
                   [this] { built_->names = std::make_shared<const ModuleNames>(*soc_); });
    return built_->names;
}

int SocTimeTables::estimated_functional_pins() const
{
    std::call_once(built_->pins_built,
                   [this] { built_->functional_pins = estimate_functional_pins(*soc_); });
    return built_->functional_pins;
}

PackMemo& SocTimeTables::pack_memo() const
{
    std::call_once(built_->memo_built, [this] { built_->memo.emplace(module_count()); });
    return *built_->memo;
}

ChannelGroup::ChannelGroup(WireCount width, const SocTimeTables& tables)
    : tables_(&tables)
{
    reset(width);
}

ChannelGroup::ChannelGroup(const ChannelGroup& other)
    : tables_(other.tables_),
      width_(other.width_),
      modules_(other.modules_),
      fill_(other.fill_),
      members_max_width_(other.members_max_width_),
      stair_root_(other.width_ + 1)
{
    // The staircase cache stays behind: copies are long-lived snapshots
    // (Step-2 incumbents, Step-1 winners) that rarely get queried beyond
    // their width, and a dropped cache only costs a lazy rebuild.
}

ChannelGroup& ChannelGroup::operator=(const ChannelGroup& other)
{
    tables_ = other.tables_;
    width_ = other.width_;
    modules_ = other.modules_;
    fill_ = other.fill_;
    members_max_width_ = other.members_max_width_;
    stair_.clear();
    stair_synced_.clear();
    stair_root_ = other.width_ + 1;
    return *this;
}

void ChannelGroup::reset(WireCount width)
{
    if (width < 1) {
        throw ValidationError("channel group width must be at least one wire");
    }
    width_ = width;
    modules_.clear();
    fill_ = 0;
    members_max_width_ = 0;
    stair_.clear();
    stair_synced_.clear();
    stair_root_ = width + 1;
}

CycleCount ChannelGroup::recompute_fill(WireCount width) const noexcept
{
    CycleCount total = 0;
    for (const int module_index : modules_) {
        total += tables_->time(module_index, width);
    }
    return total;
}

void ChannelGroup::cover_width(WireCount width) const
{
    // Append one entry per uncovered width, each a from-scratch member
    // sum (and therefore synced with the whole member list). Every
    // entry is computed at most once per (group, width); later members
    // are folded in lazily by fill_at_width's catch-up.
    auto next = stair_root_ + static_cast<WireCount>(stair_.size());
    for (; next <= width; ++next) {
        stair_.push_back(recompute_fill(next));
        stair_synced_.push_back(static_cast<std::uint32_t>(modules_.size()));
    }
}

CycleCount ChannelGroup::fill_at_width(WireCount width) const
{
    if (width == width_) {
        return fill_;
    }
    if (width < stair_root_) {
        // Narrower than the staircase root (only tests and validation
        // ask): recompute from scratch, the cold path.
        return recompute_fill(width);
    }
    // Member times are flat beyond the members' max table width, so the
    // staircase never needs entries past the saturation width.
    const WireCount capped = std::min(width, std::max(saturation_width(), stair_root_));
    cover_width(capped);
    const auto index = static_cast<std::size_t>(capped - stair_root_);
    // Catch the entry up with the members that joined since it was last
    // touched: each (entry, member) pair is folded at most once, and
    // only when the width is actually probed again.
    const auto member_count = static_cast<std::uint32_t>(modules_.size());
    if (stair_synced_[index] != member_count) {
        CycleCount value = stair_[index];
        for (std::uint32_t j = stair_synced_[index]; j < member_count; ++j) {
            value += tables_->time(modules_[j], capped);
        }
        stair_[index] = value;
        stair_synced_[index] = member_count;
    }
    return stair_[index];
}

WireCount ChannelGroup::min_widening_for(int module_index, CycleCount depth,
                                         WireCount max_extra) const
{
    if (max_extra < 1) {
        return 0;
    }
    // fits(delta) is monotone in delta: every member time and the
    // candidate's time are non-increasing in width (SocTimeTables
    // serves *effective* times), so member-sum + candidate is too. The
    // linear scan this replaces returned the first fitting delta, which
    // monotonicity makes the unique boundary — a gallop + binary search
    // over the fill staircase lands on exactly the same delta
    // (tests/incremental_pack_test.cpp pins it against a linear
    // reference, including saturation past the widest table).
    const auto fits = [&](WireCount delta) {
        const WireCount candidate = width_ + delta;
        return fill_at_width(candidate) + tables_->time(module_index, candidate) <= depth;
    };
    if (!fits(max_extra)) {
        return 0;
    }
    if (fits(1)) {
        return 1;
    }
    // Gallop to the first fitting power-of-two-ish bound, then bisect
    // the bracket (low fails, high fits).
    WireCount low = 1;
    WireCount high = 2;
    while (high < max_extra && !fits(high)) {
        low = high;
        high = std::min(high * 2, max_extra);
    }
    while (high - low > 1) {
        const WireCount mid = low + (high - low) / 2;
        if (fits(mid)) {
            high = mid;
        } else {
            low = mid;
        }
    }
    return high;
}

void ChannelGroup::widen(WireCount extra_wires)
{
    if (extra_wires < 1) {
        throw ValidationError("widening must add at least one wire");
    }
    // fill_at_width reads (or lazily extends) the staircase; entries are
    // member sums at fixed widths, so widening invalidates nothing.
    const WireCount new_width = width_ + extra_wires;
    fill_ = fill_at_width(new_width);
    width_ = new_width;
}

} // namespace mst
