#include "arch/best_fit_index.hpp"

#include <cassert>

namespace mst {

void BestFitIndex::clear() noexcept
{
    for (const ClassTop& top : tops_) {
        classes_[top.cls].heap.clear();
    }
    tops_.clear();
    class_of_group_.clear();
    pos_of_group_.clear();
}

void BestFitIndex::add_group(std::size_t group, WireCount width, CycleCount fill)
{
    assert(group == class_of_group_.size());
    class_of_group_.push_back(0);
    pos_of_group_.push_back(0);
    insert(class_for(width), Entry{fill, group});
}

void BestFitIndex::set_group(std::size_t group, WireCount width, CycleCount fill)
{
    const std::size_t cls = class_for(width);
    if (cls == class_of_group_[group]) {
        set_fill(group, fill);
        return;
    }
    erase(group);
    insert(cls, Entry{fill, group});
}

std::size_t BestFitIndex::class_for(WireCount width)
{
    const auto w = static_cast<std::size_t>(width);
    if (w >= class_by_width_.size()) {
        class_by_width_.resize(w + 1, 0);
    }
    if (class_by_width_[w] == 0) {
        classes_.emplace_back();
        classes_.back().width = width;
        class_by_width_[w] = classes_.size();
    }
    return class_by_width_[w] - 1;
}

void BestFitIndex::insert(std::size_t cls, Entry entry)
{
    WidthClass& width_class = classes_[cls];
    if (width_class.heap.empty()) {
        width_class.top_slot = tops_.size();
        tops_.push_back(ClassTop{entry.fill, entry.group, width_class.width, cls});
    }
    width_class.heap.push_back(entry);
    class_of_group_[entry.group] = cls;
    sift(cls, width_class.heap.size() - 1);
}

void BestFitIndex::erase(std::size_t group)
{
    const std::size_t cls = class_of_group_[group];
    const std::size_t pos = pos_of_group_[group];
    WidthClass& width_class = classes_[cls];
    const Entry last = width_class.heap.back();
    width_class.heap.pop_back();
    if (pos < width_class.heap.size()) {
        width_class.heap[pos] = last;
        sift(cls, pos);
    } else if (width_class.heap.empty()) {
        // Swap-remove the class's minimum from the dense array.
        const std::size_t slot = width_class.top_slot;
        tops_[slot] = tops_.back();
        classes_[tops_[slot].cls].top_slot = slot;
        tops_.pop_back();
    } else {
        const Entry& root = width_class.heap.front();
        tops_[width_class.top_slot].fill = root.fill;
        tops_[width_class.top_slot].group = root.group;
    }
}

} // namespace mst
