#include "perf/bench_json.hpp"

#include <ostream>
#include <sstream>

#include "report/solution_json.hpp"

namespace mst {

namespace {

void write_timing(std::ostream& out, const TimingStats& stats)
{
    out << "{ \"iterations\": " << stats.iterations << ", \"min_s\": " << json_number(stats.min)
        << ", \"p50_s\": " << json_number(stats.p50) << ", \"p95_s\": " << json_number(stats.p95)
        << ", \"p99_s\": " << json_number(stats.p99) << ", \"mean_s\": " << json_number(stats.mean)
        << ", \"max_s\": " << json_number(stats.max) << " }";
}

void write_case(std::ostream& out, const BenchCaseResult& result)
{
    out << "    {\n";
    out << "      \"name\": \"" << json_escape(result.name) << "\",\n";
    out << "      \"soc\": \"" << json_escape(result.soc_name) << "\",\n";
    out << "      \"variant\": \"" << json_escape(result.variant) << "\",\n";
    out << "      \"channels\": " << result.channels << ",\n";
    out << "      \"depth_vectors\": " << result.depth << ",\n";
    out << "      \"ok\": " << (result.ok ? "true" : "false");
    if (!result.ok) {
        out << ",\n      \"error\": \"" << json_escape(result.error) << "\"\n    }";
        return;
    }
    out << ",\n      \"wall_seconds\": ";
    write_timing(out, result.wall);
    if (result.baseline_wall) {
        out << ",\n      \"baseline_wall_seconds\": ";
        write_timing(out, *result.baseline_wall);
        if (result.wall.p50 > 0) {
            out << ",\n      \"speedup_p50\": "
                << json_number(result.baseline_wall->p50 / result.wall.p50);
        }
    }
    if (result.fingerprint_matches_baseline) {
        out << ",\n      \"fingerprint_matches_baseline\": "
            << (*result.fingerprint_matches_baseline ? "true" : "false");
    }
    if (result.exact) {
        out << ",\n      \"exact\": { \"exact_wires\": " << result.exact->exact_wires
            << ", \"step1_wires\": " << result.exact->step1_wires
            << ", \"binpack_wires\": " << result.exact->binpack_wires
            << ", \"lower_bound_wires\": " << result.exact->lower_bound_wires
            << ", \"exact_gap\": " << result.exact->exact_gap
            << ", \"bnb_nodes\": " << result.exact->bnb_nodes
            << ", \"certified\": " << (result.exact->certified ? "true" : "false") << " }";
    }
    out << ",\n      \"fingerprint\": { \"sites\": " << result.fingerprint.sites
        << ", \"channels_per_site\": " << result.fingerprint.channels_per_site
        << ", \"test_cycles\": " << result.fingerprint.test_cycles
        << ", \"devices_per_hour\": " << json_number(result.fingerprint.devices_per_hour)
        << " },\n";
    out << "      \"optimizer_stats\": { \"pack_calls\": " << result.stats.packing.pack_calls
        << ", \"pack_cache_hits\": " << result.stats.packing.pack_cache_hits
        << ", \"greedy_passes\": " << result.stats.packing.greedy_passes
        << ", \"depth_profiles\": " << result.stats.packing.depth_profiles
        << ", \"pruned_packs\": " << result.stats.packing.pruned_packs
        << ", \"site_points\": " << result.stats.site_points
        << ", \"threads\": " << result.stats.threads << " }\n";
    out << "    }";
}

} // namespace

std::string bench_report_to_json(const BenchReport& report)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"" << bench_schema_name << "\",\n";
    out << "  \"schema_version\": " << bench_schema_version << ",\n";
    out << "  \"suite\": \"" << json_escape(report.suite) << "\",\n";
    out << "  \"repetitions\": " << report.repetitions << ",\n";
    out << "  \"compared_baseline\": " << (report.compared_baseline ? "true" : "false") << ",\n";
    out << "  \"threads\": " << report.threads << ",\n";
    out << "  \"total_seconds\": " << json_number(report.total_seconds) << ",\n";
    out << "  \"scenario_count\": " << report.results.size() << ",\n";
    out << "  \"scenarios\": [";
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n");
        write_case(out, report.results[i]);
    }
    out << "\n  ]\n";
    out << "}\n";
    return out.str();
}

} // namespace mst
