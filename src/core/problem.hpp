// Problem statement types for the two-step optimizer (Section 5).
//
// Problems 1 (core-based SOC) and 2 (flattened SOC) share one interface:
// a flattened SOC is simply an Soc with a single module (the paper calls
// Problem 2 "a degenerate case of Problem 1").
#pragma once

#include "throughput/model.hpp"
#include "wrapper/erpct.hpp"

namespace mst {

/// Step-1 policy knobs. The defaults reproduce the paper's algorithm;
/// the alternatives exist for the ablation benchmarks.
enum class GroupSelectPolicy {
    best_fit_min_depth, ///< paper: group yielding the smallest resulting fill
    first_fit,          ///< ablation: first group that fits, in creation order
};

enum class ExpansionPolicy {
    widen_by_kmin,  ///< paper (Fig. 4): every alternative adds k_min(module) wires;
                    ///< pick the one with the smallest total fill
    min_widening,   ///< ablation: widen an existing group by the smallest
                    ///< delta that fits, competing on free memory
    always_new_group, ///< ablation: never widen, always open a new group
};

enum class ModuleOrder {
    by_min_width,  ///< paper: decreasing k_min (ties: volume, then index)
    by_volume,     ///< ablation: decreasing test-data volume
    by_time,       ///< ablation: decreasing single-wire test time
    input_order,   ///< ablation: benchmark file order
};

/// All options of one optimization run.
struct OptimizeOptions {
    BroadcastMode broadcast = BroadcastMode::none;
    AbortOnFail abort = AbortOnFail::off;
    RetestPolicy retest = RetestPolicy::none;
    YieldModel yields;

    /// E-RPCT parameters: contacted control pads and (optionally) the
    /// chip functional pin count (0 = estimate from the SOC).
    int control_pads = default_control_pads;
    int functional_pins = 0;

    /// Step-1 policies (paper defaults).
    GroupSelectPolicy group_select = GroupSelectPolicy::best_fit_min_depth;
    ExpansionPolicy expansion = ExpansionPolicy::widen_by_kmin;
    ModuleOrder module_order = ModuleOrder::by_min_width;

    /// Skip Step 2 (used to reproduce the paper's "Step 1 only" curves).
    bool step1_only = false;

    /// Criterion-1 budget search: retry the Step-1 greedy under wire
    /// budgets growing from the theoretical lower bound and keep the
    /// first feasible packing. This realizes the paper's "criterion 1
    /// has priority" more strictly than a single greedy pass and removes
    /// the pass's occasional more-memory-needs-more-channels anomalies.
    /// Disable to benchmark the raw single-pass greedy (ablation).
    bool budget_search = true;

    /// Post-pass compaction: delete channel groups whose modules can be
    /// relocated into the remaining groups, saving their wires. Disable
    /// to benchmark the uncompacted greedy (ablation).
    bool compaction = true;

    /// Memoize repeated packing work (per-depth minimal widths and module
    /// orders, per-(depth, budget) greedy results) across the Step-1
    /// budget search and Step-2 re-pack scans. Pure caching: solutions
    /// are byte-identical either way (golden fingerprint tests). Disable
    /// to measure the from-scratch baseline with `mst bench --compare`.
    bool memoize = true;

    /// Certify Step 1 with the exact branch-and-bound (src/exact/):
    /// seed the search from the greedy architecture and report the
    /// optimality gap in Solution::exact. Only valid for SOCs within
    /// exact_module_limit modules (ValidationError beyond).
    bool exact = false;

    /// Anytime budget for the exact pass, in "milliseconds" of the
    /// deterministic exact_nodes_per_ms calibration (0 = exhaust the
    /// tree). The summary's `certified` flag reports whether the tree
    /// was exhausted within the budget.
    std::int64_t exact_budget_ms = 0;

    /// Concurrency cap for the fan-outs of one optimize call: the
    /// SocTimeTables build and the site-curve evaluation of 256 or more
    /// points. The Step-1 and Step-2 packing scans are sequential.
    /// <= 0 uses the whole shared executor (hardware width); 1 runs
    /// everything inline. The solution AND the work counters are
    /// byte-identical at every value.
    int threads = 0;
};

} // namespace mst
