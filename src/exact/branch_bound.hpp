// Exact reference solver for Step 1's core question: the minimum total
// TAM wires that test an SOC within a vector-memory depth, optionally
// under a hard wire budget.
//
// The search space is the set of partitions of the modules into channel
// groups; for a fixed partition the optimal group width is the smallest
// width whose re-wrapped serial fill fits the depth (the fill is
// monotone in width, so binary search applies). Branch-and-bound over
// partitions prunes the Bell-number tree with the same suffix-area
// relaxation the greedy packing engine uses: the remaining modules'
// `min_area_from` floors, taken at each module's depth-minimal width
// (any group a module can legally join is at least that wide, so the
// floor is sound and strictly tighter than the raw min-area floor).
//
// Parallel discipline: the tree is expanded breadth-first to a fixed
// frontier of subtree roots, and the roots are then searched as
// adaptive waves (1, 1, 2, 4, then 8 roots) on Executor::global(), with
// the incumbent bound snapshot at each wave start and a
// lowest-index-winner reduction.
// Node counts and results are therefore byte-identical at any thread
// count. Not meant for production SOCs — Step 1 is; this is the
// yardstick Step 1 is measured against.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace mst {

/// Which constraint makes an exact search infeasible.
enum class ExactInfeasible {
    depth,  ///< some module fits no width within the memory depth
    budget, ///< every depth-feasible partition exceeds the wire budget
};

/// Infeasibility of the exact (budget, depth) search, with the failing
/// constraint attached. Derives from InfeasibleError so surfaces that
/// map error taxonomy to response kinds (serve/replay, batch rows)
/// classify exact failures exactly like greedy ones.
class ExactInfeasibleError : public InfeasibleError {
public:
    ExactInfeasibleError(ExactInfeasible kind, const std::string& message)
        : InfeasibleError(message), kind_(kind)
    {
    }

    [[nodiscard]] ExactInfeasible kind() const noexcept { return kind_; }

private:
    ExactInfeasible kind_;
};

/// Result of the exact search.
struct ExactResult {
    WireCount wires = 0;                  ///< best total wires found
    std::vector<std::vector<int>> groups; ///< module indices per group
    std::int64_t nodes_explored = 0;      ///< search effort (thread-count invariant)
    /// True when the whole pruned tree was exhausted, i.e. `wires` is
    /// the proven optimum; false when the node budget truncated the
    /// search and `wires` is only the best incumbent found.
    bool certified = true;
};

/// Knobs of one exact search.
struct ExactOptions {
    /// Hard wire budget (0 = unconstrained). The search proves either a
    /// partition within the budget or — when it exhausts the tree —
    /// budget-infeasibility (ExactInfeasibleError{budget}).
    WireCount wire_budget = 0;

    /// Node budget for the anytime mode (0 = exhaust the tree). Checked
    /// at wave boundaries with per-task caps snapshot at wave start, so
    /// the truncation point is deterministic at any thread count.
    std::int64_t node_limit = 0;

    /// Concurrency cap for the subtree waves (<= 0: whole shared
    /// executor). Results and node counts are identical at any value.
    int threads = 0;

    /// Initial incumbent partition (module indices per group), typically
    /// the Step-1 greedy architecture. Must cover every module exactly
    /// once and be depth-feasible (ValidationError otherwise). The
    /// search never returns a worse partition than the seed.
    std::vector<std::vector<int>> seed;
};

/// Hard cap on the module count accepted by the exact solver; beyond
/// this the partition tree is too large to enumerate honestly.
inline constexpr int exact_module_limit = 14;

/// Deterministic anytime calibration: `--exact-budget-ms` maps to a
/// node budget of ms * this constant, so a wall-clock-sounding knob
/// never makes results machine- or load-dependent.
inline constexpr std::int64_t exact_nodes_per_ms = 20'000;

/// Branch-and-bound over the (wire budget, depth) design space.
/// Throws ValidationError for oversized SOCs (> exact_module_limit),
/// non-positive depths, or malformed seeds, and ExactInfeasibleError
/// (kind depth or budget) when no acceptable partition exists.
[[nodiscard]] ExactResult exact_search(const SocTimeTables& tables, CycleCount depth,
                                       const ExactOptions& options);

/// Compatibility wrapper: exact minimum wires at `depth` with no wire
/// budget and no node budget, or nullopt if some module fits at no
/// width. Throws ValidationError if the SOC exceeds exact_module_limit
/// modules.
[[nodiscard]] std::optional<ExactResult> exact_min_wires(const SocTimeTables& tables,
                                                         CycleCount depth);

} // namespace mst
