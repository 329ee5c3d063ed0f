// Step 2 of the two-step algorithm (Section 6): linear search over the
// site count n, redistributing freed-up channels over the remaining
// sites, picking the n with maximum throughput.
#pragma once

#include "ate/ate.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "core/step1.hpp"

namespace mst {

/// Step-2 output: the best site count, the (possibly widened) per-site
/// architecture at that count, and the whole search trace.
struct Step2Result {
    SiteCount best_sites = 0;
    Architecture best_architecture;  ///< references the SocTimeTables of Step 1
    ThroughputResult best_throughput;
    std::vector<SitePoint> curve;    ///< one entry per examined n (descending)
};

/// One evaluated site point: its curve entry and the throughput-model
/// output behind it.
struct SiteEvaluation {
    SitePoint point;
    ThroughputResult throughput;
};

/// Evaluate the throughput model (Section 4) for `sites` sites, each
/// tested through `architecture`.
[[nodiscard]] SiteEvaluation evaluate_site_point(SiteCount sites,
                                                 const Architecture& architecture,
                                                 const TestCell& cell,
                                                 const OptimizeOptions& options);

/// Run Step 2 starting from a Step-1 architecture, sharing the packing
/// engine (and its memo) with Step 1's budget search.
[[nodiscard]] Step2Result run_step2(PackEngine& engine,
                                    const Step1Result& step1,
                                    const TestCell& cell);

/// Convenience overload with a run-local engine.
[[nodiscard]] Step2Result run_step2(const Step1Result& step1,
                                    const TestCell& cell,
                                    const OptimizeOptions& options);

/// The virtual depths the re-pack fallback scans for one wire budget:
/// ascending integer multiples of 0.025 * depth, starting at the first
/// lattice point at or above the total-area floor (never below 0.05),
/// truncated at the first depth that could not beat `beat_cycles`.
/// Exposed for the lattice regression tests; the scan itself lives in
/// run_step2's re-pack fallback.
[[nodiscard]] std::vector<CycleCount> repack_candidates(const SocTimeTables& tables,
                                                        CycleCount depth,
                                                        WireCount wire_budget,
                                                        CycleCount beat_cycles);

} // namespace mst
