// Best-fit channel-group selection in sublinear time.
//
// Step 1's greedy (paper Fig. 4) places each module on the existing
// group whose resulting fill, fill(g) + t(m, width(g)), is smallest and
// within the depth; among equal resulting fills the lowest group index
// wins. A dense scan answers that in O(groups) per placed module.
//
// BestFitIndex answers it in O(width classes) per query and O(log
// groups) per mutation. Groups are bucketed by width; inside one width
// class t(m, w) is the same for every group, so the class's minimum by
// (fill, group index) is its only candidate — if it does not fit within
// the depth, no group of the class does. The scan's answer is then the
// smallest (fill + t(m, w), group index) over the class minima, which is
// exactly the scan's "smallest resulting fill, lowest index on ties".
// Each class keeps its groups in a binary min-heap with back-pointers,
// so a fill change or a move to another class re-sifts one entry, and
// the class minima sit in one dense array the query walks.
//
// The index mirrors an Architecture's group fills and widths; the owner
// reports every mutation (add_group, set_fill or place, set_group).
// Buffers are kept across clear(), so a reused index allocates nothing
// after warm-up.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/types.hpp"

namespace mst {

class BestFitIndex {
public:
    /// Forget every group; heap and class buffers stay allocated.
    void clear() noexcept;

    /// Register group `group` (must be the next index: 0, 1, 2, ...).
    void add_group(std::size_t group, WireCount width, CycleCount fill);

    /// Group `group` now has `fill` at its current width.
    void set_fill(std::size_t group, CycleCount fill) noexcept
    {
        const std::size_t cls = class_of_group_[group];
        const std::size_t pos = pos_of_group_[group];
        classes_[cls].heap[pos].fill = fill;
        sift(cls, pos);
    }

    /// Group `group` now has `width` wires and `fill` (a widening).
    void set_group(std::size_t group, WireCount width, CycleCount fill);

    /// A best-fit answer: the group, its fill once the module joins, and
    /// its width class (the group is that class's minimum).
    struct Fit {
        std::size_t group;
        CycleCount fill;
        std::size_t cls;
    };

    /// The group minimizing (fill + row.at_width(width), group index)
    /// among those whose resulting fill is within `depth`, or nullopt.
    [[nodiscard]] std::optional<Fit> best_fit(const SocTimeTables::TimeRow& row,
                                              CycleCount depth) const noexcept
    {
        std::optional<Fit> best;
        for (const ClassTop& top : tops_) {
            const CycleCount fill = top.fill + row.at_width(top.width);
            if (fill > depth) {
                continue; // the class minimum does not fit, so no member does
            }
            if (!best || fill < best->fill || (fill == best->fill && top.group < best->group)) {
                best = Fit{top.group, fill, top.cls};
            }
        }
        return best;
    }

    /// The module of `fit` joined its group. Same as set_fill(fit.group,
    /// fit.fill), without looking the group up: it is its class's root.
    /// Taking the fill from the query rather than from the architecture
    /// keeps the architecture's update off the chain from one placement
    /// to the next query, which is most of a greedy pass's time.
    void place(const Fit& fit) noexcept
    {
        classes_[fit.cls].heap.front().fill = fit.fill;
        sift(fit.cls, 0);
    }

    /// Number of non-empty width classes (what a query costs).
    [[nodiscard]] std::size_t width_classes() const noexcept { return tops_.size(); }

private:
    struct Entry {
        CycleCount fill;
        std::size_t group;
    };
    struct WidthClass {
        WireCount width = 0;
        std::vector<Entry> heap;   ///< min-heap by (fill, group)
        std::size_t top_slot = 0;  ///< position in tops_ while non-empty
    };
    /// A non-empty class's minimum, kept dense for the query loop.
    struct ClassTop {
        CycleCount fill;
        std::size_t group;
        WireCount width;
        std::size_t cls;
    };

    /// (fill, group) order, branch-free: the sift loops run it on
    /// effectively random data.
    [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept
    {
        return static_cast<bool>(static_cast<int>(a.fill < b.fill) |
                                 (static_cast<int>(a.fill == b.fill) &
                                  static_cast<int>(a.group < b.group)));
    }
    std::size_t class_for(WireCount width);
    void insert(std::size_t cls, Entry entry);
    void erase(std::size_t group);

    /// Restore the heap order around `pos` of class `cls` after its
    /// entry's fill changed or it was moved there, then refresh the
    /// class's dense minimum.
    void sift(std::size_t cls, std::size_t pos) noexcept
    {
        WidthClass& width_class = classes_[cls];
        Entry* heap = width_class.heap.data();
        const std::size_t size = width_class.heap.size();
        const Entry entry = heap[pos];
        while (pos > 0) {
            const std::size_t parent = (pos - 1) / 2;
            if (!before(entry, heap[parent])) {
                break;
            }
            heap[pos] = heap[parent];
            pos_of_group_[heap[pos].group] = pos;
            pos = parent;
        }
        for (;;) {
            std::size_t child = 2 * pos + 1;
            if (child >= size) {
                break;
            }
            if (child + 1 < size) {
                child += static_cast<std::size_t>(before(heap[child + 1], heap[child]));
            }
            if (!before(heap[child], entry)) {
                break;
            }
            heap[pos] = heap[child];
            pos_of_group_[heap[pos].group] = pos;
            pos = child;
        }
        heap[pos] = entry;
        pos_of_group_[entry.group] = pos;
        ClassTop& top = tops_[width_class.top_slot];
        top.fill = heap[0].fill;
        top.group = heap[0].group;
    }

    std::vector<WidthClass> classes_;
    std::vector<std::size_t> class_by_width_; ///< width -> classes_ slot + 1, 0 = none
    std::vector<ClassTop> tops_;              ///< one per non-empty class
    std::vector<std::size_t> class_of_group_;
    std::vector<std::size_t> pos_of_group_;   ///< heap position inside its class
};

} // namespace mst
