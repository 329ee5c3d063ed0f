// One planning solve over resident tables, traced layer by layer, plus
// the per-layer metrics the plan workloads and the serve probes share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/channel_group.hpp"
#include "core/pack_stats.hpp"
#include "core/problem.hpp"
#include "ate/ate.hpp"
#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work counters summed over the traced solves of a run.
struct SolveCounters {
    std::uint64_t solves = 0;
    mst::PackStats packing;
    std::int64_t site_points = 0;
    double json_bytes = 0;
    std::uint64_t table_sets = 0;
    double table_entries = 0;
    double table_bytes = 0;
    double serial_pack_s = 0; ///< Step 1 + Step 2 at one thread
};

/// Optimize (the library's optimize_multi_site) and serialize one
/// scenario, under spans named optimize and json, children of `parent`.
/// Traced, the packing counters come from the solution's stats.
[[nodiscard]] std::string solve_on_tables(SpanBuffer& trace, std::uint64_t op, int parent,
                                          const mst::SocTimeTables& tables,
                                          const mst::TestCell& cell,
                                          const mst::OptimizeOptions& options,
                                          SolveCounters& counters);

/// Step 1 + Step 2 of the scenario again, outside any scenario span: at
/// options.threads under a pack.probe root with step1 and step2 children
/// (the source of step1.ms and step2.ms), then at one thread, untraced,
/// into counters.serial_pack_s (the numerator of pack.speedup_1_to_n).
void probe_packing(SpanBuffer& trace, std::uint64_t op, const mst::SocTimeTables& tables,
                   const mst::TestCell& cell, const mst::OptimizeOptions& options,
                   SolveCounters& counters);

/// Count one table set: entries are the width steps of every module,
/// bytes the computed size of the flat hot-path arrays (a time and a
/// suffix area per entry, plus per-module offsets and volumes).
void count_tables(const mst::SocTimeTables& tables, SolveCounters& counters);

/// Add the solve-side per-layer metrics (soc.parse_ms, tables.*, step1.ms,
/// step2.ms, optimize.ms, pack.*, step2.site_points, json.*) from the
/// span totals and counters.
void add_solve_layers(Result& result, const std::map<std::string, LayerTime>& layers,
                      const SolveCounters& counters);

/// Mean of `layer`'s self (or total) time per span, scaled to `unit_scale`.
[[nodiscard]] double mean_time(const std::map<std::string, LayerTime>& layers,
                               const std::string& layer, double unit_scale, bool self = true);

} // namespace perfbench
