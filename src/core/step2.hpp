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
/// tested through an architecture of `channels_per_site` channels and
/// `test_cycles` cycles.
[[nodiscard]] SiteEvaluation evaluate_site_point(SiteCount sites,
                                                 ChannelCount channels_per_site,
                                                 CycleCount test_cycles,
                                                 const TestCell& cell,
                                                 const OptimizeOptions& options);

/// Step 2's search, score-free: walk n from the Step-1 result's n_max
/// down to 1 over the packing engine Step 1 used, and record the
/// incumbent at every n into `plan` (built from that same result). The
/// walk reads the ATE and the engine's options, never the score.
void plan_step2(PackEngine& engine, const Step1Result& step1, const AteSpec& ate,
                DftPlan& plan);

/// Section 4's score of a plan's Step 2 trajectory: every n from n_max
/// down to 1 evaluated, and the best by strict improvement of the
/// figure of merit, so ties keep the larger n.
struct Step2Score {
    SiteCount best_sites = 0;
    std::size_t best_step = 0;       ///< the plan step holding best_sites
    ThroughputResult best_throughput;
    std::vector<SitePoint> curve;
};
[[nodiscard]] Step2Score score_step2(const DftPlan& plan, const TestCell& cell,
                                     const OptimizeOptions& options);

/// Run Step 2 starting from a Step-1 architecture, sharing the packing
/// engine (and its memo) with Step 1's budget search: plan_step2, then
/// score_step2, then the winner's architecture.
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
