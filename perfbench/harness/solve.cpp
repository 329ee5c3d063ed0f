#include "solve.hpp"

#include "core/optimizer.hpp"
#include "core/pack_engine.hpp"
#include "core/step1.hpp"
#include "core/step2.hpp"
#include "report/solution_json.hpp"

namespace perfbench {

namespace {

void add_packing(mst::PackStats& into, const mst::PackStats& stats)
{
    into.pack_calls += stats.pack_calls;
    into.pack_cache_hits += stats.pack_cache_hits;
    into.greedy_passes += stats.greedy_passes;
    into.depth_profiles += stats.depth_profiles;
    into.pruned_packs += stats.pruned_packs;
}

/// Step 1 + Step 2 of one scenario, the way optimize_multi_site runs
/// them, in seconds; with an enabled buffer under step1 and step2 spans.
double pack_seconds(SpanBuffer& trace, std::uint64_t op, int parent,
                    const mst::SocTimeTables& tables, const mst::TestCell& cell,
                    const mst::OptimizeOptions& options)
{
    const auto start = Clock::now();
    mst::PackEngine engine(tables, options);
    const mst::Step1Result step1 = [&] {
        ScopedSpan span(trace, "step1", op, parent);
        return mst::run_step1(engine, cell.ate);
    }();
    ScopedSpan span(trace, "step2", op, parent);
    (void)mst::run_step2(engine, step1, cell);
    return seconds_between(start, Clock::now());
}

} // namespace

std::string solve_on_tables(SpanBuffer& trace, std::uint64_t op, int parent,
                            const mst::SocTimeTables& tables, const mst::TestCell& cell,
                            const mst::OptimizeOptions& options, SolveCounters& counters)
{
    mst::Solution solution;
    {
        ScopedSpan span(trace, "optimize", op, parent);
        solution = mst::optimize_multi_site(tables, cell, options);
    }
    std::string json;
    {
        ScopedSpan span(trace, "json", op, parent);
        json = mst::solution_to_json(solution, mst::JsonStyle::compact);
    }
    if (trace.enabled()) {
        ++counters.solves;
        add_packing(counters.packing, solution.stats.packing);
        counters.site_points += solution.stats.site_points;
        counters.json_bytes += static_cast<double>(json.size());
    }
    return json;
}

void probe_packing(SpanBuffer& trace, std::uint64_t op, const mst::SocTimeTables& tables,
                   const mst::TestCell& cell, const mst::OptimizeOptions& options,
                   SolveCounters& counters)
{
    {
        ScopedSpan root(trace, "pack.probe", op);
        (void)pack_seconds(trace, op, root.index(), tables, cell, options);
    }
    mst::OptimizeOptions serial = options;
    serial.threads = 1;
    SpanBuffer untraced(false);
    counters.serial_pack_s += pack_seconds(untraced, op, -1, tables, cell, serial);
}

void count_tables(const mst::SocTimeTables& tables, SolveCounters& counters)
{
    std::size_t entries = 0;
    const auto modules = static_cast<std::size_t>(tables.module_count());
    for (int m = 0; m < tables.module_count(); ++m) {
        entries += static_cast<std::size_t>(tables.flat_max_width(m));
    }
    ++counters.table_sets;
    counters.table_entries += static_cast<double>(entries);
    counters.table_bytes += static_cast<double>(
        entries * 2 * sizeof(mst::CycleCount) + (modules + 1) * sizeof(std::size_t) +
        modules * sizeof(std::int64_t));
}

double mean_time(const std::map<std::string, LayerTime>& layers, const std::string& layer,
                 double unit_scale, bool self)
{
    const auto it = layers.find(layer);
    if (it == layers.end() || it->second.count == 0) {
        return 0;
    }
    const double seconds = self ? it->second.self_s : it->second.total_s;
    return seconds / static_cast<double>(it->second.count) * unit_scale;
}

void add_solve_layers(Result& result, const std::map<std::string, LayerTime>& layers,
                      const SolveCounters& counters)
{
    const auto per_solve = [&](double total) {
        return counters.solves == 0 ? 0.0 : total / static_cast<double>(counters.solves);
    };
    const auto per_table_set = [&](double total) {
        return counters.table_sets == 0 ? 0.0 : total / static_cast<double>(counters.table_sets);
    };
    const auto ratio = [](double part, double whole) { return whole == 0 ? 0.0 : part / whole; };
    const double calls = static_cast<double>(counters.packing.pack_calls);

    result.add("soc.parse_ms", mean_time(layers, "soc.parse", 1e3), "ms");
    result.add("tables.build_ms", mean_time(layers, "tables.build", 1e3), "ms");
    result.add("tables.entries", per_table_set(counters.table_entries), "count");
    result.add("tables.bytes", per_table_set(counters.table_bytes), "bytes");
    result.add("step1.ms", mean_time(layers, "step1", 1e3), "ms");
    result.add("step2.ms", mean_time(layers, "step2", 1e3), "ms");
    result.add("optimize.ms", mean_time(layers, "optimize", 1e3, false), "ms");
    result.add("pack.calls", per_solve(calls), "count");
    result.add("pack.greedy_passes",
               per_solve(static_cast<double>(counters.packing.greedy_passes)), "count");
    result.add("pack.cache_hit_ratio",
               ratio(static_cast<double>(counters.packing.pack_cache_hits), calls), "ratio");
    result.add("pack.pruned_ratio",
               ratio(static_cast<double>(counters.packing.pruned_packs), calls), "ratio");
    result.add("step2.site_points", per_solve(static_cast<double>(counters.site_points)),
               "count");
    const auto probe = layers.find("pack.probe");
    const double parallel_pack_s = probe == layers.end() ? 0.0 : probe->second.total_s;
    result.add("pack.speedup_1_to_n", ratio(counters.serial_pack_s, parallel_pack_s), "ratio");
    result.add("json.ms", mean_time(layers, "json", 1e3), "ms");
    result.add("json.bytes", per_solve(counters.json_bytes), "bytes");
}

} // namespace perfbench
