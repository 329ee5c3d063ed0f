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
/// the tables are immutable and safe to share across threads.
[[nodiscard]] Solution optimize_multi_site(const SocTimeTables& tables,
                                           const TestCell& cell,
                                           const OptimizeOptions& options = {});

} // namespace mst
