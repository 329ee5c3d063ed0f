// Problem statement types for the two-step optimizer (Section 5).
//
// Problems 1 (core-based SOC) and 2 (flattened SOC) share one interface:
// a flattened SOC is simply an Soc with a single module (the paper calls
// Problem 2 "a degenerate case of Problem 1").
#pragma once

#include "throughput/model.hpp"
#include "wrapper/erpct.hpp"

namespace mst {

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

    /// Skip Step 2 (used to reproduce the paper's "Step 1 only" curves).
    bool step1_only = false;

    /// Criterion-1 budget search: retry the Step-1 greedy under wire
    /// budgets growing from the theoretical lower bound, over virtual
    /// depths and fallback passes (module orders x expansion policies),
    /// keep the first feasible packing, then compact it (delete channel
    /// groups whose modules fit into the remaining ones). This realizes
    /// the paper's "criterion 1 has priority" more strictly than a single
    /// greedy pass and removes the pass's occasional
    /// more-memory-needs-more-channels anomalies.
    ///
    /// false is the reference mode: the paper's literal Fig. 4 greedy —
    /// one pass in decreasing-k_min order with k_min widening, at the full
    /// depth and the ATE's whole channel budget, and no compaction. (Once
    /// the ATE's channels no longer allow a k_min widening, where Fig. 4
    /// exits, the pass still tries the smallest widening that fits.)
    /// Tests compare against it; docs/divergences.md records what the
    /// search buys.
    bool budget_search = true;

    /// Memoize repeated packing work (per-depth minimal widths and module
    /// orders, per-(depth, budget) greedy results) across the Step-1
    /// budget search and Step-2 re-pack scans, and share the greedy
    /// results with every solve over the same table set (its pack memo).
    /// Pure caching: solutions are byte-identical either way (golden
    /// fingerprint tests). Disable to measure the from-scratch baseline
    /// with `mst bench --compare`; that reference neither reads nor
    /// fills the table set's memo.
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
    /// SocTimeTables build and the exact solver's subtree waves. The
    /// Step-1 and Step-2 packing scans and the site curve are sequential.
    /// <= 0 uses the whole shared executor (hardware width); 1 runs
    /// everything inline. The solution AND the work counters are
    /// byte-identical at every value.
    int threads = 0;
};

} // namespace mst
