// Fast, exact wrapper test-time evaluation.
//
// Building the time tables dominated the optimizer's wall time: a row
// needs wrapped_test_time(module, w) for every width w, and the full
// design path re-sorts the module's scan chains, materializes a
// WrapperDesign, and water-fills the functional cells one by one on
// every call. Only three numbers per width survive into the time
// formula: the LPT maximum aggregate scan length and the two water-fill
// maxima — and the water-fill maxima have closed forms. The calculator
// sorts the chains once per module and evaluates each width with a
// loads-only LPT heap, producing test times byte-identical to
// design_wrapper (asserted exhaustively by tests/wrapper_time_test.cpp).
//
// Two closed-form bounds on the LPT maximum S(w), for w below the chain
// count C (total T flip-flops, longest chain L, water-fill lines
// F_in/out(w) = ceil((T + in/out cells) / w)), spare most heap runs.
// scan_test_time is non-decreasing in both arguments, so bounds on S
// carry over to the time:
//
//   - lower: S(w) >= max(L, ceil(T / w)) — no chain is split, and some
//     wrapper chain carries at least the average. time_if_can_beat()
//     skips a width whose time at that floor cannot beat the running
//     best of the table build (see wrapper/pareto.hpp).
//   - upper: S(w) <= floor((T - L) / w) + L — the chain j that ends on
//     the fullest wrapper chain was placed on the emptiest one, loaded
//     at most floor((T - l_j) / w), and that bound grows with l_j. Once
//     both water-fill lines reach it, max(S, F) = F on both sides and
//     time() is exact without running LPT at all.
#pragma once

#include <optional>
#include <vector>

#include "soc/module.hpp"

namespace mst {

/// Reusable per-module evaluator of design_wrapper(...).test_time.
class WrapperTimeCalculator {
public:
    explicit WrapperTimeCalculator(const Module& module);

    [[nodiscard]] const Module& module() const noexcept { return *module_; }

    /// Test time of `module` wrapped at `width`; equals
    /// design_wrapper(module, width).test_time exactly.
    /// Throws ValidationError if width < 1.
    [[nodiscard]] CycleCount time(WireCount width) const;

    /// Same result as time(), but the LPT load heap lives in
    /// `loads_scratch` (cleared and reused per call). The table build
    /// evaluates many widths of every module in a tight loop; reusing
    /// one buffer per row keeps that loop allocation-free.
    [[nodiscard]] CycleCount time(WireCount width,
                                  std::vector<FlipFlopCount>& loads_scratch) const;

    /// time(width), or nullopt when the closed-form lower bound alone
    /// proves that time(width) >= `best` — then the width cannot improve
    /// on a best time found at a narrower width, and no LPT runs.
    /// Requires width >= 1.
    [[nodiscard]] std::optional<CycleCount> time_if_can_beat(
        WireCount width, CycleCount best, std::vector<FlipFlopCount>& loads_scratch) const;

private:
    /// The two water-fill lines ceil((T + cells) / width): the maximum
    /// load after water-filling a side's cells on top of the scan
    /// chains, before the scan maximum is applied.
    struct Waterlines {
        FlipFlopCount in = 0;
        FlipFlopCount out = 0;
    };
    [[nodiscard]] Waterlines waterlines(WireCount width) const noexcept;
    /// The time with the scan maximum at its floor: a lower bound on the
    /// time, exact at widths >= the chain count. ceil(T / w) never
    /// exceeds either line, so the floor max(L, ceil(T / w)) folds into
    /// max(L, line) on both sides.
    [[nodiscard]] CycleCount floor_time(const Waterlines& lines) const noexcept;
    /// time(width) given its water-fill lines: closed form where a bound
    /// settles it, LPT otherwise.
    [[nodiscard]] CycleCount exact_time(WireCount width, const Waterlines& lines,
                                        std::vector<FlipFlopCount>& loads_scratch) const;
    /// LPT maximum aggregate scan length over `width` wrapper chains.
    [[nodiscard]] FlipFlopCount lpt_max_load(WireCount width,
                                             std::vector<FlipFlopCount>& loads) const;

    const Module* module_;
    std::vector<FlipFlopCount> sorted_lengths_; ///< chain lengths, descending
    FlipFlopCount total_flip_flops_ = 0;
    FlipFlopCount longest_chain_ = 0;
};

} // namespace mst
