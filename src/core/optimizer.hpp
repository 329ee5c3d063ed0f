// Public entry point of the library: the two-step optimizer of Section 6
// solving Problems 1 and 2 of Section 5.
//
//   Soc soc = make_benchmark_soc("d695");
//   TestCell cell;                      // 512 ch x 7M, 5 MHz, 0.5 s index
//   OptimizeOptions options;            // no broadcast, no abort, no retest
//   Solution solution = optimize_multi_site(soc, cell, options);
//
// The returned Solution carries the optimal site count n_opt, the
// per-site channel count k, the channel-group (TAM) architecture, the
// E-RPCT wrapper parameters, and the full n -> throughput curve.
#pragma once

#include "ate/ate.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "soc/soc.hpp"

namespace mst {

/// Design the on-chip test infrastructure for optimal multi-site testing
/// of `soc` on the fixed test cell `cell`.
///
/// Throws InfeasibleError when the SOC cannot be tested on the given ATE
/// at all, and ValidationError on malformed inputs.
[[nodiscard]] Solution optimize_multi_site(const Soc& soc,
                                           const TestCell& cell,
                                           const OptimizeOptions& options = {});

/// Same optimization over prebuilt wrapper time tables. Building
/// SocTimeTables dominates the pipeline's wall time, so callers running
/// many scenarios against one SOC (batch and sweep, the bench harness,
/// the CLI's Gantt rendering) construct the tables once and reuse them;
/// the tables are safe to share across threads.
///
/// A solve runs in three steps:
///   1. plan — the table set's DftPlan of this cell shape (depth, ATE
///      channels, broadcast, budget_search, step1_only; see
///      arch/pack_memo.hpp), or a fresh search (Step 1, then Step 2's
///      walk over n) that is published for the next solve;
///   2. score — the throughput model of Section 4 over every site point
///      of the plan, with this solve's index and contact times, yields,
///      abort-on-fail, retest and control pads;
///   3. materialize — the winner's architecture, rebuilt once from the
///      plan, and the solution around it.
/// So every what-if over one cell shape searches once. With
/// OptimizeOptions::memoize off the solve neither reads nor publishes
/// plans.
[[nodiscard]] Solution optimize_multi_site(const SocTimeTables& tables,
                                           const TestCell& cell,
                                           const OptimizeOptions& options = {});

} // namespace mst
