// Channel groups: the unit of the paper's Step-1 architecture.
//
// A channel group is a fixed-width TAM; the modules assigned to it are
// tested one after another over the same wires, so the group's vector
// memory "fill" is the sum of its members' wrapped test times and must
// stay within the ATE's per-channel depth.
//
// Both classes here sit on the innermost greedy-packing loop, so they
// are built around incremental state instead of recomputation:
// SocTimeTables stores every module staircase once, in one contiguous
// block (a time lookup is a single indexed load), and ChannelGroup
// maintains a lazily-extended *fill staircase* — cached member-time
// sums at widths beyond the current one — so fill-at-width queries and
// widenings are O(1) amortized instead of O(members). All of it is pure
// caching: results are byte-identical to the recomputing code
// (tests/incremental_pack_test.cpp pins both invariants).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "arch/pack_memo.hpp"
#include "common/types.hpp"
#include "report/module_names.hpp"
#include "soc/soc.hpp"
#include "wrapper/pareto.hpp"

namespace mst {

/// std::allocator whose value-less construct() default-initializes, so
/// resize() leaves new scalars unwritten instead of zeroing them. The
/// table build overwrites every entry anyway, in parallel; zeroing first
/// would be an extra serial pass over the whole block.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
    using std::allocator<T>::allocator;
    template <class U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };
    template <class U>
    void construct(U* p) noexcept
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

/// Storage of one flat per-entry table array.
template <class T>
using TableArray = std::vector<T, DefaultInitAllocator<T>>;

/// Precomputed width/time staircases for every module of an SOC.
/// The SOC must outlive the tables. Immutable after construction, with
/// two exceptions:
///   * the two depth-independent module orders (volume_order(),
///     time_order()), the module names table (module_names()) and the
///     functional pin estimate (estimated_functional_pins()) are built
///     on first use, each at most once per table set under
///     std::call_once: concurrent first calls build it once, and every
///     caller reads the same value. None is built in the constructor,
///     so a set that only packs never pays for them;
///   * the pack memo (pack_memo()) is built the same way and then grows:
///     every PackEngine over the set publishes the pack queries it
///     answers, under the memo's one mutex, and reuses the ones other
///     solves published. An answer never changes once published, so it
///     reads the same at any thread count and in any solve order.
/// So one instance can be shared freely across threads (run_scenarios
/// builds one per distinct SOC and hands it to every scenario of that
/// SOC; serve's tables cache hands one to every request).
///
/// The tables are stored once, as flat structure-of-arrays blocks: module
/// m owns entries [offsets_[m], offsets_[m + 1]) of the times and
/// suffix-min-area arrays, entry i holding the value at width i + 1.
/// The times are the whole state: every module's extent (its saturation
/// width, wrapper/pareto.hpp) follows from the SOC alone, and the areas,
/// volumes and total min area are derived from the times. So the
/// constructor sizes the arrays first and then fills the disjoint
/// per-module slices in parallel. The accessors below are the packing
/// hot path as well as the cold readers' interface: no bounds-checked
/// `.at()`, no object hop — a debug assert guards the contract in debug
/// builds.
class SocTimeTables {
public:
    /// `threads` caps the parallel per-module build (<= 0: whole shared
    /// executor). The tables are identical at any value.
    explicit SocTimeTables(const Soc& soc, TableBuild build = TableBuild::fast,
                           int threads = 0);

    /// Restore from the serialized times of the shared-memory cache tier
    /// (src/shm/store.hpp): every module's row, back to back in module
    /// order, each table_extent(module) entries long. The suffix-min
    /// areas, volumes and total min area are derived through the same
    /// code a fresh build uses, so a restored instance is byte-identical
    /// to the original. Throws ValidationError when `times` does not
    /// match the SOC's rows in length or a row is not a positive,
    /// non-increasing staircase.
    SocTimeTables(const Soc& soc, TableArray<CycleCount> times);

    [[nodiscard]] const Soc& soc() const noexcept { return *soc_; }
    [[nodiscard]] int module_count() const noexcept { return static_cast<int>(volumes_.size()); }

    /// Sum over modules of the minimum width*time rectangle area: the
    /// theoretical packing floor both search loops start from.
    [[nodiscard]] CycleCount total_min_area() const noexcept { return total_min_area_; }

    // --- Flat accessors (all O(1), unchecked in release) ---

    /// Widths recorded for `module_index`; wider widths saturate.
    [[nodiscard]] WireCount flat_max_width(int module_index) const noexcept
    {
        assert(module_index >= 0 && module_index < module_count());
        const auto m = static_cast<std::size_t>(module_index);
        return static_cast<WireCount>(offsets_[m + 1] - offsets_[m]);
    }

    /// Effective (monotone non-increasing) test time of `module_index`
    /// at `width`; widths beyond the module's row saturate.
    [[nodiscard]] CycleCount time(int module_index, WireCount width) const noexcept
    {
        return times_[entry(module_index, width)];
    }

    /// One module's staircase slice, for loops that probe the same
    /// module at many widths (the greedy's per-module group scans):
    /// resolving the offsets once hoists the indirections out of the
    /// inner loop.
    struct TimeRow {
        const CycleCount* times; ///< entry i = time at width i + 1
        std::size_t count;       ///< widths recorded; wider saturates

        [[nodiscard]] CycleCount at_width(WireCount width) const noexcept
        {
            const auto clamped =
                static_cast<std::size_t>(width) < count ? static_cast<std::size_t>(width)
                                                        : count;
            return times[clamped - 1];
        }
    };
    [[nodiscard]] TimeRow time_row(int module_index) const noexcept
    {
        assert(module_index >= 0 && module_index < module_count());
        const auto m = static_cast<std::size_t>(module_index);
        return {times_.data() + offsets_[m], offsets_[m + 1] - offsets_[m]};
    }

    /// Minimum width*time rectangle area of `module_index` over widths
    /// >= `width`. In any packing whose every group fill stays within a
    /// depth D, the module sits on a group at least min_width_for(D)
    /// wide, so min_area_from(min_width_for(D)) lower-bounds the
    /// wire-cycles it occupies — the per-depth packing floor PackEngine
    /// uses to prune provably-infeasible (depth, budget) queries.
    [[nodiscard]] CycleCount min_area_from(int module_index, WireCount width) const noexcept
    {
        return suffix_min_areas_[entry(module_index, width)];
    }

    /// Minimum width*time rectangle area of `module_index` over all
    /// widths (the baseline's per-module packing area).
    [[nodiscard]] CycleCount min_area(int module_index) const noexcept
    {
        return min_area_from(module_index, 1);
    }

    /// Minimal width of `module_index` whose effective time fits in
    /// `depth`, or nullopt if even the maximal width does not fit:
    /// a binary search over the module's times.
    [[nodiscard]] std::optional<WireCount> min_width_for(int module_index,
                                                         CycleCount depth) const noexcept
    {
        const auto m = static_cast<std::size_t>(module_index);
        const CycleCount* first = times_.data() + offsets_[m];
        const CycleCount* last = times_.data() + offsets_[m + 1];
        if (*(last - 1) > depth) {
            return std::nullopt;
        }
        // Times are non-increasing: find the first width that fits.
        const CycleCount* it = std::lower_bound(
            first, last, depth,
            [](CycleCount time, CycleCount limit) { return time > limit; });
        return static_cast<WireCount>(it - first) + 1;
    }

    /// min_width_for when the answer is known to be at least `from`, as
    /// when `from` is the module's minimal width at a larger depth
    /// (minimal widths never shrink as the depth drops). An exponential
    /// search from `from` returns the same width, in O(log row) probes
    /// at worst and one probe when the width does not move.
    [[nodiscard]] std::optional<WireCount> min_width_for(int module_index, CycleCount depth,
                                                         WireCount from) const noexcept
    {
        assert(from >= 1);
        const TimeRow row = time_row(module_index);
        if (row.times[row.count - 1] > depth) {
            return std::nullopt;
        }
        // Every width below lo + 1 misses the depth; width hi + 1 fits.
        std::size_t lo = std::min(static_cast<std::size_t>(from), row.count) - 1;
        std::size_t hi = lo;
        for (std::size_t step = 1; row.times[hi] > depth; step *= 2) {
            lo = hi + 1;
            hi = std::min(hi + step, row.count - 1);
        }
        const CycleCount* it = std::lower_bound(
            row.times + lo, row.times + hi, depth,
            [](CycleCount time, CycleCount limit) { return time > limit; });
        return static_cast<WireCount>(it - row.times) + 1;
    }

    /// Test-data volume of `module_index` in bits (sort key of the
    /// by-volume module orders, precomputed once per SOC).
    [[nodiscard]] std::int64_t volume_bits(int module_index) const noexcept
    {
        assert(module_index >= 0 && module_index < module_count());
        return volumes_[static_cast<std::size_t>(module_index)];
    }

    /// Module indices by decreasing test-data volume, ties by index: the
    /// by-volume greedy order, and the base the per-depth
    /// by-minimal-width order is counting-sorted from. Built on first
    /// use, once per table set (see the class comment).
    [[nodiscard]] const std::vector<int>& volume_order() const;

    /// Module indices by decreasing single-wire test time, ties by
    /// index: the by-time greedy order. Built on first use, once per
    /// table set.
    [[nodiscard]] const std::vector<int>& time_order() const;

    /// The SOC's module names by module index, raw and JSON-quoted
    /// (report/module_names.hpp), built on first use, once per table
    /// set: each name is escaped here, not per solve. Shared, not
    /// borrowed: every Solution over the set holds this pointer, so its
    /// names outlive the tables and the SOC.
    [[nodiscard]] const std::shared_ptr<const ModuleNames>& module_names() const;

    /// estimate_functional_pins() of the SOC (wrapper/erpct.hpp), a sum
    /// over every module's terminals: computed on first use, once per
    /// table set, not per solve.
    [[nodiscard]] int estimated_functional_pins() const;

    /// The table set's memo of answered pack queries (arch/pack_memo.hpp),
    /// shared by every PackEngine over this set. Built on first use.
    [[nodiscard]] PackMemo& pack_memo() const;

private:
    /// Flat index of `module_index` at `width`, clamped into its row.
    /// Every index this can produce is materialized, which is what
    /// licenses the unchecked loads: module indices are validated by the
    /// offsets_ size (module_count() + 1 entries) and clamping never
    /// leaves the module's [offsets_[m], offsets_[m + 1]) slice.
    [[nodiscard]] std::size_t entry(int module_index, WireCount width) const noexcept
    {
        assert(module_index >= 0 && module_index < module_count());
        assert(width >= 1);
        const auto m = static_cast<std::size_t>(module_index);
        const auto count = offsets_[m + 1] - offsets_[m];
        const auto clamped = static_cast<std::size_t>(width) < count
                                 ? static_cast<std::size_t>(width)
                                 : count;
        return offsets_[m] + clamped - 1;
    }

    /// Derive the row offsets from the SOC's table extents and size every
    /// per-entry and per-module array but the times to them.
    void lay_out_rows();
    /// Derive the suffix-min areas of module `m`'s row and its volume.
    void finish_row(std::size_t m);
    /// Sum the per-module min areas into total_min_area_.
    void sum_min_areas() noexcept;

    const Soc* soc_;
    CycleCount total_min_area_ = 0;
    std::vector<std::size_t> offsets_;
    TableArray<CycleCount> times_;
    TableArray<CycleCount> suffix_min_areas_;
    std::vector<std::int64_t> volumes_;

    /// The once-built module orders, names table, pin estimate and pack
    /// memo.
    /// std::once_flag and the memo's mutex neither copy nor move, so they
    /// sit behind a pointer: the tables stay movable (the serve tables
    /// cache moves a restored set into its entry), and published memo
    /// answers keep their addresses across the move.
    struct OnFirstUse {
        std::once_flag volume_built;
        std::once_flag time_built;
        std::once_flag names_built;
        std::once_flag pins_built;
        std::once_flag memo_built;
        std::vector<int> by_volume;
        std::vector<int> by_time;
        std::shared_ptr<const ModuleNames> names;
        int functional_pins = 0;
        std::optional<PackMemo> memo;
    };
    std::unique_ptr<OnFirstUse> built_ = std::make_unique<OnFirstUse>();
};

/// One TAM / channel group.
///
/// The group keeps its fill incrementally and caches a *fill staircase*:
/// member-time sums at widths beyond the current one, extended lazily as
/// queries reach further. Each entry remembers how many members it has
/// folded in, so adding a module is O(1) (no cache touch at all) and a
/// later query catches the entry up with just the members that joined
/// since — every (entry, member) pair is folded at most once, and only
/// if that width is actually probed again. The staircase makes
/// fill_at_width / widen O(1) amortized, and — because every member
/// time is non-increasing in width — lets min_widening_for replace its
/// linear delta scan with a gallop + binary search that returns the
/// exact same delta.
///
/// The staircase is a cache with no observable effect on results; it is
/// dropped on copy (copies are long-lived snapshots: Step-2 incumbents,
/// Step-1 winners) and rebuilt lazily on demand. Lazy extension
/// mutates `const` objects under the hood, so a single ChannelGroup must
/// not be queried from two threads at once; the packing engine gives
/// every greedy pass its own architecture, which guarantees that.
class ChannelGroup {
public:
    ChannelGroup(WireCount width, const SocTimeTables& tables);

    /// Copies keep the logical state (width, members, fill) and drop the
    /// staircase cache; see the class comment.
    ChannelGroup(const ChannelGroup& other);
    ChannelGroup& operator=(const ChannelGroup& other);
    ChannelGroup(ChannelGroup&&) noexcept = default;
    ChannelGroup& operator=(ChannelGroup&&) noexcept = default;

    [[nodiscard]] WireCount width() const noexcept { return width_; }
    [[nodiscard]] const std::vector<int>& module_indices() const noexcept { return modules_; }
    [[nodiscard]] CycleCount fill() const noexcept { return fill_; }

    /// Fill if `module_index` were added at the current width.
    [[nodiscard]] CycleCount fill_with(int module_index) const noexcept
    {
        return fill_ + tables_->time(module_index, width_);
    }

    /// Fill of the current members if the group were `width` wide.
    [[nodiscard]] CycleCount fill_at_width(WireCount width) const;

    /// Smallest width increase delta >= 1 such that the re-wrapped members
    /// plus `module_index` fit in `depth`, capped at `max_extra`.
    /// Returns 0 if no delta in [1, max_extra] works.
    [[nodiscard]] WireCount min_widening_for(int module_index, CycleCount depth,
                                             WireCount max_extra) const;

    /// Add a module at the current width. O(1): the staircase entries
    /// catch up lazily when their widths are next queried.
    void add_module(int module_index)
    {
        fill_ += tables_->time(module_index, width_);
        modules_.push_back(module_index);
        const WireCount table_width = tables_->flat_max_width(module_index);
        if (table_width > members_max_width_) {
            members_max_width_ = table_width;
        }
    }

    /// add_module for `count` modules at once, the indices `next()`
    /// returns in member order: the member list grows once, and one pass
    /// over the members' time rows sums their times and table widths.
    /// The group ends in the state add_module per index leaves.
    template <class NextIndex>
    void add_modules(std::size_t count, NextIndex next)
    {
        const std::size_t first = modules_.size();
        modules_.resize(first + count);
        CycleCount fill = fill_;
        WireCount max_width = members_max_width_;
        for (std::size_t i = first; i < modules_.size(); ++i) {
            const int module_index = next();
            modules_[i] = module_index;
            const SocTimeTables::TimeRow row = tables_->time_row(module_index);
            fill += row.at_width(width_);
            max_width = std::max(max_width, static_cast<WireCount>(row.count));
        }
        fill_ = fill;
        members_max_width_ = max_width;
    }

    /// Grow the group; members are re-wrapped at the new width.
    void widen(WireCount extra_wires);

    /// The member list, moved out: the group is spent (a materialized
    /// solution takes its groups' members this way).
    [[nodiscard]] std::vector<int> release_module_indices() && noexcept
    {
        return std::move(modules_);
    }

    /// Re-arm a pooled group as if freshly constructed at `width`,
    /// keeping the heap buffers (PackScratch reuse).
    void reset(WireCount width);

private:
    /// Sum of member times at `width`, computed from scratch.
    [[nodiscard]] CycleCount recompute_fill(WireCount width) const noexcept;
    /// Extend the staircase so it covers `width` (<= saturation width).
    void cover_width(WireCount width) const;
    /// Width beyond which no member time can drop any further.
    [[nodiscard]] WireCount saturation_width() const noexcept { return members_max_width_; }

    const SocTimeTables* tables_;
    WireCount width_ = 0;
    std::vector<int> modules_;
    CycleCount fill_ = 0;
    /// Max over members of their table width: beyond it the fill is flat.
    WireCount members_max_width_ = 0;
    /// stair_[i] is the fill of the first stair_synced_[i] members at
    /// width stair_root_ + i. Rooted at construction width + 1; widening
    /// never invalidates entries (they are width-indexed sums independent
    /// of the current width), and an entry whose synced count lags the
    /// member list is caught up on its next query. `mutable`: extended
    /// lazily by const queries (see class comment).
    mutable std::vector<CycleCount> stair_;
    mutable std::vector<std::uint32_t> stair_synced_;
    WireCount stair_root_ = 0;
};

} // namespace mst
