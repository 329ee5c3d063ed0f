// Machine-readable BENCH JSON: the perf trajectory record `mst bench`
// emits (BENCH_optimizer.json) and CI uploads as an artifact. The format
// is schema-versioned so downstream tooling (tools/validate_bench.py,
// trend dashboards) can reject incompatible files instead of
// misreading them.
#pragma once

#include <string>

#include "perf/bench_suite.hpp"

namespace mst {

/// Schema identity embedded in every report. Bump the version on any
/// backwards-incompatible change and teach tools/validate_bench.py the
/// new layout in the same commit.
/// v2: top-level "threads" (configured intra-scenario concurrency cap,
/// 0 = executor-wide) and per-scenario optimizer_stats gained
/// "pruned_packs" (area-floor prune hits) and "threads" (resolved cap).
/// v3: optional per-scenario "exact" block (the certify suite's
/// optimality-gap record: exact/step1/binpack/lower-bound wires,
/// "exact_gap", "bnb_nodes", "certified").
/// v4: timing blocks gained tail-latency percentiles "p95_s" and
/// "p99_s" (type-7 interpolated order statistics; equal to "p50_s" at
/// iterations = 1), gated by tools/bench_diff.py alongside p50.
inline constexpr const char* bench_schema_name = "mst.bench";
inline constexpr int bench_schema_version = 4;

/// Serialize a bench report as one self-contained JSON object with a
/// deterministic key order.
[[nodiscard]] std::string bench_report_to_json(const BenchReport& report);

} // namespace mst
