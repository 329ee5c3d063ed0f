#include "wrapper/time_calculator.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/error.hpp"
#include "wrapper/test_time.hpp"

namespace mst {

namespace {

/// floor(bits / width) for bits >= 0 and width >= 1. Flip-flop counts
/// fit in 32 bits in practice, and a 32-bit division is several times
/// cheaper than a 64-bit one on common x86 cores; the quotient is the
/// same either way.
FlipFlopCount quotient(FlipFlopCount bits, WireCount width) noexcept
{
    if (bits <= static_cast<FlipFlopCount>(UINT32_MAX)) {
        return static_cast<std::uint32_t>(bits) / static_cast<std::uint32_t>(width);
    }
    return bits / width;
}

} // namespace

WrapperTimeCalculator::WrapperTimeCalculator(const Module& module) : module_(&module)
{
    // Equal lengths are indistinguishable, so an unstable sort gives the
    // same sequence a stable one would, without its scratch buffer.
    sorted_lengths_ = module.scan_chain_lengths();
    std::sort(sorted_lengths_.begin(), sorted_lengths_.end(), std::greater<FlipFlopCount>());
    for (const FlipFlopCount length : sorted_lengths_) {
        total_flip_flops_ += length;
    }
    longest_chain_ = sorted_lengths_.empty() ? 0 : sorted_lengths_.front();
}

FlipFlopCount WrapperTimeCalculator::lpt_max_load(WireCount width,
                                                  std::vector<FlipFlopCount>& loads) const
{
    // Loads-only LPT: longest chain first onto the currently shortest
    // wrapper chain. Which equal-load chain receives a chain does not
    // affect the evolving load multiset, so tracking loads alone yields
    // the same maximum as the index-tie-broken heap in design_wrapper.
    // The first `width` chains land one per empty wrapper chain; in
    // ascending order they already form the min-heap.
    const auto n = static_cast<std::size_t>(width);
    loads.assign(sorted_lengths_.rend() - static_cast<std::ptrdiff_t>(n), sorted_lengths_.rend());
    for (std::size_t next = n; next < sorted_lengths_.size(); ++next) {
        // Add the chain to the heap top (the least-loaded wrapper chain)
        // and sift the grown load down.
        const FlipFlopCount load = loads[0] + sorted_lengths_[next];
        std::size_t at = 0;
        for (std::size_t child = 1; child < n; child = 2 * at + 1) {
            if (child + 1 < n && loads[child + 1] < loads[child]) {
                ++child;
            }
            if (loads[child] >= load) {
                break;
            }
            loads[at] = loads[child];
            at = child;
        }
        loads[at] = load;
    }
    return *std::max_element(loads.begin(), loads.end());
}

WrapperTimeCalculator::Waterlines WrapperTimeCalculator::waterlines(WireCount width) const noexcept
{
    // The greedy fill (each cell onto the currently shortest chain)
    // keeps the scan peak while the valleys absorb the cells, and
    // reaches the ceiling of the average load once they overflow: the
    // water-fill maximum is max(scan peak, line).
    const FlipFlopCount spare = total_flip_flops_ + width - 1;
    return {quotient(spare + module_->scan_in_cells(), width),
            quotient(spare + module_->scan_out_cells(), width)};
}

CycleCount WrapperTimeCalculator::floor_time(const Waterlines& lines) const noexcept
{
    return scan_test_time(module_->patterns(), std::max(longest_chain_, lines.in),
                          std::max(longest_chain_, lines.out));
}

CycleCount WrapperTimeCalculator::exact_time(WireCount width, const Waterlines& lines,
                                             std::vector<FlipFlopCount>& loads_scratch) const
{
    // With at least one wrapper chain per scan chain, LPT places every
    // chain alone: the scan maximum is its floor, the longest chain.
    if (static_cast<std::size_t>(width) >= sorted_lengths_.size()) {
        return floor_time(lines);
    }
    // Both lines at or above the LPT upper bound (so above the longest
    // chain too): they are the maxima on both sides, which is exactly
    // floor_time.
    const FlipFlopCount lpt_upper =
        quotient(total_flip_flops_ - longest_chain_, width) + longest_chain_;
    if (std::min(lines.in, lines.out) >= lpt_upper) {
        return floor_time(lines);
    }
    const FlipFlopCount scan_max = lpt_max_load(width, loads_scratch);
    return scan_test_time(module_->patterns(), std::max(scan_max, lines.in),
                          std::max(scan_max, lines.out));
}

CycleCount WrapperTimeCalculator::time(WireCount width) const
{
    std::vector<FlipFlopCount> loads;
    return time(width, loads);
}

CycleCount WrapperTimeCalculator::time(WireCount width,
                                       std::vector<FlipFlopCount>& loads_scratch) const
{
    if (width < 1) {
        throw ValidationError("wrapper width must be at least 1 wire (module '" +
                              module_->name() + "')");
    }
    return exact_time(width, waterlines(width), loads_scratch);
}

std::optional<CycleCount> WrapperTimeCalculator::time_if_can_beat(
    WireCount width, CycleCount best, std::vector<FlipFlopCount>& loads_scratch) const
{
    const Waterlines lines = waterlines(width);
    if (floor_time(lines) >= best) {
        return std::nullopt;
    }
    return exact_time(width, lines, loads_scratch);
}

} // namespace mst
