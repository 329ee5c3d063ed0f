// mst_cli: command-line front end of the mst library.
//
//   mst_cli optimize --soc d695 --channels 256 --depth 48K [--broadcast]
//   mst_cli batch    --socs d695,p22810 --channels 256,512 --depths 8M,32M
//   mst_cli sweep    --spec grid.sweep --out results/ --shards 16 --workers 4
//   mst_cli serve                        # JSON-lines request loop on stdin
//   mst_cli replay requests.jsonl        # request file, concurrent, in-order
//   mst_cli inspect  --soc data/d695.soc
//   mst_cli generate --profile p93791 --out p93791.soc
//
// --soc accepts either a benchmark name (d695, p22810, p34392, p93791,
// pnx8550) or a path to a .soc file.
//
// Flags are validated per subcommand (see cli/flags.hpp): unknown or
// duplicate flags and malformed numeric values are hard errors, never
// silently ignored or truncated.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "arch/channel_group.hpp"
#include "ate/ate.hpp"
#include "cli/flags.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"
#include "common/faultpoint.hpp"
#include "common/format.hpp"
#include "core/optimizer.hpp"
#include "core/step1.hpp"
#include "flow/test_flow.hpp"
#include "perf/bench_json.hpp"
#include "perf/bench_suite.hpp"
#include "common/net.hpp"
#include "common/signals.hpp"
#include "common/supervisor.hpp"
#include "report/gantt.hpp"
#include "report/solution_json.hpp"
#include "report/table.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"
#include "service/prefork.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "shm/store.hpp"
#include "soc/profiles.hpp"
#include "soc/writer.hpp"

namespace {

using namespace mst;
using cli::FlagSpec;
using cli::Flags;
using cli::flag_or;
using cli::parse_double_flag;
using cli::parse_int_flag;

/// Append `extra` to `base` (flag-set composition).
std::vector<FlagSpec> operator+(std::vector<FlagSpec> base, const std::vector<FlagSpec>& extra)
{
    base.insert(base.end(), extra.begin(), extra.end());
    return base;
}

/// Optimize-option flags shared by optimize, batch, and flow — generated
/// from the protocol binding tables, so the CLI surface and the request
/// API cannot drift (see service/protocol.hpp).
const std::vector<FlagSpec> option_flags = protocol::option_flag_specs();

/// Test-cell flags shared by optimize and flow (batch re-declares the
/// list-valued ones). Same source of truth as the request fields.
const std::vector<FlagSpec> cell_flags = protocol::cell_flag_specs();

/// Service-tuning flags shared by serve and replay.
const std::vector<FlagSpec> service_flags = {
    {"threads", true}, {"tables-cache", true}, {"memo", true},
};

/// Network flags accepted by `serve` (active with --listen).
const std::vector<FlagSpec> server_flags = {
    {"listen", true},          {"port-file", true},        {"max-connections", true},
    {"queue", true},           {"conn-queue", true},       {"idle-timeout-ms", true},
    {"read-timeout-ms", true}, {"write-timeout-ms", true}, {"max-frame-bytes", true},
    {"processes", true},       {"shm", true},              {"shm-name", true},
};

/// --fault-plan wins over the MST_FAULT_PLAN environment variable (the
/// env plan, if any, was installed before dispatch; re-installing here
/// replaces it wholesale). Same strict parser either way: a typo is a
/// hard error with a nearest-match suggestion, never an inert plan.
void install_fault_plan_flag(const Flags& flags)
{
    const std::string plan = flag_or(flags, "fault-plan", "");
    if (!plan.empty()) {
        fault::install_plan(fault::parse_plan(plan));
    }
}

Soc load_soc_argument(const Flags& flags)
{
    const std::string spec = flag_or(flags, "soc", "");
    if (spec.empty()) {
        throw ValidationError("--soc <name|path> is required");
    }
    return load_soc_spec(spec);
}

// Cell/option flag interpretation is the protocol's binding tables
// applied to the parsed flag map — one implementation for every
// subcommand and for JSON requests.
using protocol::cell_from_flags;
using protocol::options_from_flags;

int cmd_optimize(const Flags& flags)
{
    const Soc soc = load_soc_argument(flags);
    const TestCell cell = cell_from_flags(flags);
    OptimizeOptions options = options_from_flags(flags);
    // Intra-scenario concurrency cap; the solution is byte-identical at
    // any value, so 0 = all cores is safe.
    options.threads = parse_int_flag("threads", flag_or(flags, "threads", "0"));
    cell.validate(); // fail fast: the table build below is the expensive part
    const SocTimeTables tables(soc, TableBuild::fast, options.threads);
    const Solution solution = optimize_multi_site(tables, cell, options);

    if (flags.count("json") != 0) {
        std::cout << solution_to_json(solution);
        return 0;
    }

    std::cout << "SOC " << solution.soc_name << " on ATE with " << cell.ate.channels
              << " channels x " << format_depth(cell.ate.vector_memory_depth)
              << " vectors @ " << cell.ate.test_clock_hz / 1e6 << " MHz\n\n";
    std::cout << "Step 1: k = " << solution.channels_step1
              << " channels, n_max = " << solution.max_sites_step1 << "\n";
    if (solution.exact) {
        std::cout << "Exact:  " << solution.exact->wires << " wires vs greedy "
                  << solution.exact->greedy_wires << " (gap " << solution.exact->gap << ", "
                  << solution.exact->nodes_explored << " B&B nodes, "
                  << (solution.exact->certified ? "certified optimum"
                                                : "not certified: node budget hit")
                  << ")\n";
    }
    std::cout << "Optimal: n_opt = " << solution.sites
              << " sites, k = " << solution.channels_per_site << " channels/site\n";
    std::cout << "Test length: " << solution.test_cycles << " cycles = "
              << format_seconds(solution.manufacturing_time) << "\n";
    std::cout << "Throughput: " << format_throughput(solution.throughput.devices_per_hour)
              << " devices/hour";
    if (options.retest == RetestPolicy::retest_contact_failures) {
        std::cout << " (" << format_throughput(solution.throughput.unique_devices_per_hour)
                  << " unique)";
    }
    std::cout << "\n\nE-RPCT wrapper: " << solution.erpct.external_channels
              << " external channels -> " << solution.erpct.internal_wires
              << " TAM wires, " << solution.erpct.contacted_pads() << " pads probed, ~"
              << static_cast<long>(solution.erpct.area_gate_equivalents()) << " GE\n\n";

    Table table({"group", "wires", "channels", "fill (cycles)", "modules"});
    int index = 0;
    for (const GroupSummary& group : solution.groups) {
        std::string names;
        for (const int module_index : group.module_indices) {
            if (!names.empty()) {
                names += ' ';
            }
            names += solution.module_name(module_index);
        }
        table.add_row({"TAM " + std::to_string(++index), std::to_string(group.wires),
                       std::to_string(channels_from_wires(group.wires)),
                       std::to_string(group.fill), names});
    }
    std::cout << table;

    if (flags.count("gantt") != 0) {
        // Re-derive the Step-1 architecture for the drawing; widths match
        // the solution at n = n_max, which is what the chart illustrates.
        const Step1Result step1 = run_step1(tables, cell.ate, options);
        std::cout << '\n'
                  << render_gantt(step1.architecture, cell.ate.vector_memory_depth);
    }
    return 0;
}

std::vector<std::string> split_csv(const std::string& text)
{
    std::vector<std::string> items;
    std::stringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ',')) {
        if (!item.empty()) {
            items.push_back(item);
        }
    }
    return items;
}

/// The option-variant label of a CLI-built spec: the toggled option
/// flags joined with '+' ("broadcast+retest"), or "plain" when the run
/// uses pure defaults. Derived from the protocol binding tables like
/// the flags themselves.
std::string variant_label_from_flags(const Flags& flags)
{
    std::string label;
    for (const protocol::OptionBinding& binding : protocol::option_bindings()) {
        if (flags.count(binding.cli_flag) == 0) {
            continue;
        }
        if (!label.empty()) {
            label += '+';
        }
        label += binding.cli_flag;
    }
    return label.empty() ? "plain" : label;
}

/// `batch`: build the --socs x --channels x --depths cross product as a
/// ScenarioSpec, expand it, and fan it out across a thread pool — one
/// row per scenario. Infeasible combinations report as such instead of
/// aborting the sweep.
int cmd_batch(const Flags& flags)
{
    const std::vector<std::string> soc_specs = split_csv(flag_or(flags, "socs", ""));
    if (soc_specs.empty()) {
        throw ValidationError("batch requires --socs <name|path>[,<name|path>...]");
    }
    const std::vector<std::string> channel_list = split_csv(flag_or(flags, "channels", "512"));
    // Accept the singular optimize-style --depth as the list default, so
    // flags carried over from `optimize` are honored rather than ignored.
    const std::vector<std::string> depth_list =
        split_csv(flag_or(flags, "depths", flag_or(flags, "depth", "7M")));
    if (channel_list.empty()) {
        throw ValidationError("--channels expects a non-empty list, e.g. --channels 256,512");
    }
    if (depth_list.empty()) {
        throw ValidationError("--depths expects a non-empty list, e.g. --depths 8M,32M");
    }
    const int threads = parse_int_flag("threads", flag_or(flags, "threads", "0"));

    // The clock/prober flags are scenario-invariant; parse them once.
    // --channels and --depth hold comma-separated lists here, so they
    // must not reach cell_from_flags's single-value parsers.
    Flags scenario_invariant = flags;
    scenario_invariant.erase("channels");
    scenario_invariant.erase("depth");
    const TestCell base_cell = cell_from_flags(scenario_invariant);

    ScenarioSpec spec;
    spec.name = "batch";
    for (const std::string& soc_spec : soc_specs) {
        spec.socs.push_back(SocSource::by_spec(soc_spec));
    }
    for (const std::string& channels : channel_list) {
        for (const std::string& depth : depth_list) {
            CellPoint point;
            point.cell = base_cell;
            point.cell.ate.channels = parse_int_flag("channels", channels);
            point.cell.ate.vector_memory_depth = parse_depth(depth);
            spec.cells.push_back(point); // label derived: "<channels>x<depth>"
        }
    }
    OptionVariant variant;
    variant.label = variant_label_from_flags(flags);
    variant.options = options_from_flags(flags);
    // One meaning for --threads across the CLI: it caps this process's
    // optimizer concurrency, so the per-scenario search inherits the
    // same cap as the scenario fan-out (results are identical either
    // way; the shared pool bounds the total in any case).
    variant.options.threads = threads;
    spec.variants.push_back(std::move(variant));

    const std::vector<Scenario> scenarios = expand(spec);
    const std::vector<ScenarioResult> results = run_scenarios(scenarios, threads);

    if (flags.count("json") != 0) {
        std::cout << "[\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ScenarioResult& result = results[i];
            std::cout << "{ \"label\": \"" << json_escape(scenarios[i].name) << "\", ";
            if (result.ok()) {
                std::cout << "\"solution\": " << solution_to_json(*result.solution);
            } else {
                std::cout << "\"error\": \"" << json_escape(result.error) << "\"";
            }
            std::cout << " }" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        std::cout << "]\n";
        return 0;
    }

    Table table({"scenario", "k/site", "n_opt", "t_m", "D_th"});
    int failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult& result = results[i];
        if (result.ok()) {
            const Solution& s = *result.solution;
            table.add_row({scenarios[i].name, std::to_string(s.channels_per_site),
                           std::to_string(s.sites), format_seconds(s.manufacturing_time),
                           format_throughput(s.best_throughput())});
        } else {
            // Infeasibility is an expected grid outcome; anything else
            // surfaces its message so the row is diagnosable on its own.
            const std::string what = result.error_kind == SweepErrorKind::infeasible
                                         ? "infeasible"
                                         : "error: " + result.error;
            table.add_row({scenarios[i].name, "-", "-", "-", what});
            ++failures;
        }
    }
    std::cout << table;
    std::cout << '\n' << results.size() << " scenarios on "
              << resolve_thread_count(threads, scenarios.size()) << " threads";
    if (failures != 0) {
        std::cout << ", " << failures << " not solvable";
    }
    std::cout << '\n';
    return 0;
}

/// `sweep`: expand a spec file and run it through the sharded,
/// resumable sweep engine (see docs/sweep.md). Rerunning with the same
/// --out directory resumes: complete shard checkpoints are reused, and
/// the final report.json is byte-identical to an uninterrupted run.
int cmd_sweep(const Flags& flags)
{
    const std::string spec_path = flag_or(flags, "spec", "");
    if (spec_path.empty()) {
        throw ValidationError("sweep requires --spec <file>");
    }
    const ScenarioSpec spec = load_scenario_spec(spec_path);
    const std::vector<Scenario> scenarios = expand(spec);

    if (flags.count("list") != 0) {
        for (const Scenario& scenario : scenarios) {
            std::cout << scenario.name << '\n';
        }
        std::cout << scenarios.size() << " scenarios in sweep '" << spec.name << "'\n";
        return 0;
    }

    SweepOptions options;
    options.out_dir = flag_or(flags, "out", "");
    if (options.out_dir.empty()) {
        throw ValidationError("sweep requires --out <dir> (or --list to preview)");
    }
    options.shards = parse_int_flag("shards", flag_or(flags, "shards", "8"));
    options.workers = parse_int_flag("workers", flag_or(flags, "workers", "1"));
    options.threads = parse_int_flag("threads", flag_or(flags, "threads", "0"));
    options.max_restarts =
        parse_int_flag("max-restarts", flag_or(flags, "max-restarts", "3"));
    options.backoff_base_ms = parse_int_flag("backoff-ms", flag_or(flags, "backoff-ms", "100"));
    options.hang_timeout_ms =
        parse_int_flag("hang-timeout-ms", flag_or(flags, "hang-timeout-ms", "30000"));
    options.drain_timeout_ms =
        parse_int_flag("drain-timeout-ms", flag_or(flags, "drain-timeout-ms", "5000"));
    install_fault_plan_flag(flags);

    if (options.workers > 1) {
        // Supervised runs turn SIGTERM/SIGINT into a worker drain: the
        // supervisor forwards the signal, reaps, and resumes later from
        // the checkpoints. Inline runs keep default signal semantics.
        ShutdownLatch::global().install_handlers();
    }

    const SweepOutcome outcome = run_sweep(spec.name, scenarios, options);

    if (outcome.interrupted) {
        std::cerr << "sweep interrupted by signal; shard checkpoints kept for resume"
                  << (outcome.drain_killed ? " (straggling workers SIGKILLed)" : "")
                  << '\n';
        return outcome.drain_killed ? 137 : 130;
    }

    if (flags.count("json") != 0) {
        // The latency summary is intentionally separate from the
        // deterministic report.json: wall times differ run to run.
        std::cout << "{ \"schema\": \"mst.sweep.summary\", \"sweep\": \""
                  << json_escape(spec.name) << "\", \"scenarios\": " << outcome.scenario_count
                  << ", \"executed\": " << outcome.executed
                  << ", \"resumed\": " << outcome.resumed
                  << ", \"failed\": " << outcome.failed
                  << ", \"worker_failures\": " << outcome.worker_failures
                  << ", \"restarts\": " << outcome.restarts << ", \"quarantined\": [";
        for (std::size_t i = 0; i < outcome.quarantined.size(); ++i) {
            std::cout << (i == 0 ? "" : ", ") << outcome.quarantined[i];
        }
        std::cout << "], \"report\": \""
                  << json_escape(outcome.report_path) << "\", \"wall\": { \"p50_s\": "
                  << outcome.total_wall.p50 << ", \"p95_s\": " << outcome.total_wall.p95
                  << ", \"p99_s\": " << outcome.total_wall.p99 << " } }\n";
        return 0;
    }

    Table table({"shard", "scenarios", "failed", "from", "t_p50", "t_p95", "t_p99", "t_max"});
    for (const ShardTiming& shard : outcome.shards) {
        table.add_row({std::to_string(shard.shard), std::to_string(shard.scenarios),
                       std::to_string(shard.failed), shard.resumed ? "checkpoint" : "run",
                       format_seconds(shard.wall.p50), format_seconds(shard.wall.p95),
                       format_seconds(shard.wall.p99), format_seconds(shard.wall.max)});
    }
    std::cout << table;
    std::cout << '\n' << outcome.scenario_count << " scenarios (" << outcome.executed
              << " executed, " << outcome.resumed << " from checkpoints";
    if (outcome.failed != 0) {
        std::cout << ", " << outcome.failed << " not solvable";
    }
    std::cout << "), total p50/p95/p99 " << format_seconds(outcome.total_wall.p50) << "/"
              << format_seconds(outcome.total_wall.p95) << "/"
              << format_seconds(outcome.total_wall.p99) << '\n';
    if (outcome.worker_failures != 0 || outcome.restarts != 0 ||
        !outcome.quarantined.empty()) {
        std::cout << "supervision: " << outcome.worker_failures << " worker failures, "
                  << outcome.restarts << " restarts";
        if (!outcome.quarantined.empty()) {
            std::cout << ", quarantined scenarios:";
            for (const std::uint32_t index : outcome.quarantined) {
                std::cout << ' ' << index;
            }
        }
        std::cout << '\n';
    }
    std::cout << "wrote " << outcome.report_path << '\n';
    return 0;
}

ServiceConfig service_config_from_flags(const Flags& flags)
{
    ServiceConfig config;
    config.threads = parse_int_flag("threads", flag_or(flags, "threads", "0"));
    const int tables = parse_int_flag("tables-cache", flag_or(flags, "tables-cache", "16"));
    const int memo = parse_int_flag("memo", flag_or(flags, "memo", "256"));
    if (tables < 1 || memo < 1) {
        throw ValidationError("cache capacities must be at least 1");
    }
    config.tables_cache_capacity = static_cast<std::size_t>(tables);
    config.memo_capacity = static_cast<std::size_t>(memo);
    return config;
}

/// `serve`: persistent JSON-lines request loop. Without --listen it runs
/// on stdin/stdout; with --listen it becomes a TCP server speaking the
/// same protocol (see service/server.hpp for delivery modes, admission
/// control, and graceful shutdown). Caches live for the whole session.
int cmd_serve(const Flags& flags)
{
    install_fault_plan_flag(flags);
    const std::string listen = flag_or(flags, "listen", "");
    if (listen.empty()) {
        for (const FlagSpec& spec : server_flags) {
            if (spec.name != std::string("listen") && flags.count(spec.name) != 0) {
                throw ValidationError(std::string("--") + spec.name +
                                      " requires --listen <host:port>");
            }
        }
        RequestService service(service_config_from_flags(flags));
        service.serve(std::cin, std::cout);
        return 0;
    }

    ServerConfig config;
    config.listen = net::parse_endpoint(listen);
    config.service = service_config_from_flags(flags);
    config.max_connections =
        parse_int_flag("max-connections", flag_or(flags, "max-connections", "64"));
    config.global_queue_limit = parse_int_flag("queue", flag_or(flags, "queue", "256"));
    config.connection_queue_limit =
        parse_int_flag("conn-queue", flag_or(flags, "conn-queue", "32"));
    config.idle_timeout_ms =
        parse_int_flag("idle-timeout-ms", flag_or(flags, "idle-timeout-ms", "300000"));
    config.read_timeout_ms =
        parse_int_flag("read-timeout-ms", flag_or(flags, "read-timeout-ms", "30000"));
    config.write_timeout_ms =
        parse_int_flag("write-timeout-ms", flag_or(flags, "write-timeout-ms", "30000"));
    const int max_frame =
        parse_int_flag("max-frame-bytes", flag_or(flags, "max-frame-bytes", "1048576"));
    if (config.max_connections < 1 || config.global_queue_limit < 1 ||
        config.connection_queue_limit < 1 || max_frame < 1) {
        throw ValidationError("server limits must be at least 1");
    }
    config.max_frame_bytes = static_cast<std::size_t>(max_frame);

    // Shared-memory cache tier: --shm <bytes> enables it; the segment
    // name defaults to a per-invocation one so unrelated servers never
    // collide (pass --shm-name to share deliberately).
    const int shm_bytes = parse_int_flag("shm", flag_or(flags, "shm", "0"));
    std::string shm_name = flag_or(flags, "shm-name", "");
    if (shm_bytes < 0) {
        throw ValidationError("--shm must be a size in bytes (0 disables)");
    }
    if (!shm_name.empty() && shm_bytes == 0) {
        throw ValidationError("--shm-name requires --shm <bytes>");
    }
    if (shm_bytes > 0 && shm_name.empty()) {
        shm_name = "/mst-serve-" + std::to_string(::getpid());
    }

    ShutdownLatch& latch = ShutdownLatch::global();
    latch.install_handlers();

    const int processes = parse_int_flag("processes", flag_or(flags, "processes", "1"));
    if (processes > 1) {
        // Supervised prefork pool (docs/shm.md): the parent binds once,
        // forks workers over the shared listener, restarts the ones
        // that die, and writes --port-file only when all are ready.
        PreforkOptions prefork;
        prefork.server = config;
        prefork.processes = processes;
        prefork.port_file = flag_or(flags, "port-file", "");
        if (shm_bytes > 0) {
            prefork.shm_name = shm_name;
            prefork.shm_bytes = static_cast<std::size_t>(shm_bytes);
        }
        return run_prefork(prefork, latch);
    }
    if (processes < 1) {
        throw ValidationError("--processes must be at least 1");
    }

    if (shm_bytes > 0) {
        // Single process: attach the tier directly (degrades to
        // local-only with a warning rather than failing the server).
        config.service.shm =
            shm::ShmStore::open(shm_name, static_cast<std::size_t>(shm_bytes));
        if (!config.service.shm->attached()) {
            std::cerr << "mst serve: shared-memory tier degraded; running local-only\n";
        }
    }
    Server server(config);
    server.start();
    const net::Endpoint bound = server.endpoint();
    const std::string port_file = flag_or(flags, "port-file", "");
    if (!port_file.empty()) {
        // Written after bind so a port-0 request records the kernel pick;
        // scripts can poll for this file instead of parsing stderr.
        if (!supervisor::write_file_atomic(port_file, bound.to_string() + '\n')) {
            server.stop();
            throw ValidationError("cannot write '" + port_file + "'");
        }
    }
    std::cerr << "mst serve: listening on " << bound.to_string() << " (protocol v"
              << protocol::version << "); SIGTERM drains and exits\n";
    server.run(latch); // blocks until SIGTERM/SIGINT, then drains
    if (config.service.shm != nullptr && config.service.shm->attached() &&
        config.service.shm->segment()->created()) {
        config.service.shm->segment()->unlink(); // creator cleans up the name
    }
    return 0;
}

/// `replay`: execute a request file. Requests fan out across the thread
/// pool; responses print in request order regardless of thread count.
int cmd_replay(const std::string& path, const Flags& flags)
{
    std::ifstream file(path);
    if (!file) {
        throw ValidationError("cannot open request file '" + path + "'");
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(file, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue; // blank / whitespace-only lines are not requests
        }
        lines.push_back(line);
    }
    RequestService service(service_config_from_flags(flags));
    for (const std::string& response : service.execute(lines)) {
        std::cout << response << '\n';
    }
    return 0;
}

/// The suite options `bench` and `certify` share: --filter, --threads
/// and --repeat.
BenchOptions suite_options_from_flags(const Flags& flags)
{
    BenchOptions options;
    options.filter = flag_or(flags, "filter", "");
    options.threads = parse_int_flag("threads", flag_or(flags, "threads", "0"));
    const std::string repeat = flag_or(flags, "repeat", "");
    if (!repeat.empty()) {
        options.repetitions = parse_int_flag("repeat", repeat);
        if (options.repetitions < 1) {
            throw ValidationError("--repeat expects a positive iteration count");
        }
    }
    return options;
}

/// Run a BENCH-format suite (`bench` or `certify`) and write its JSON to
/// --out and, with --json, to stdout. Returns nullopt, after saying so,
/// when --filter matched no scenarios.
std::optional<BenchReport> run_suite(const Flags& flags, const BenchOptions& options,
                                     BenchReport (*run)(const BenchOptions&))
{
    // Open the output before the (potentially minutes-long) suite runs,
    // so a bad path fails in milliseconds instead of after the work.
    const std::string out_path = flag_or(flags, "out", "");
    std::ofstream out_file;
    if (!out_path.empty()) {
        out_file.open(out_path);
        if (!out_file) {
            throw ValidationError("cannot open '" + out_path + "' for writing");
        }
    }

    BenchReport report = run(options);
    if (report.results.empty()) {
        std::cerr << "error: --filter '" << options.filter << "' matched no scenarios\n";
        return std::nullopt;
    }

    if (!out_path.empty()) {
        out_file << bench_report_to_json(report);
        out_file.flush();
        if (!out_file.good()) {
            throw ValidationError("failed writing '" + out_path + "'");
        }
    }
    if (flags.count("json") != 0) {
        std::cout << bench_report_to_json(report);
    }
    return report;
}

/// The per-scenario table of a suite run (without --json), and its
/// summary line.
void print_suite_table(const Flags& flags, const BenchReport& report, const Table& table)
{
    std::cout << table;
    std::cout << '\n' << report.results.size() << " scenarios (" << report.suite
              << " suite), " << report.repetitions << " repetitions, "
              << format_seconds(report.total_seconds) << " total";
    const std::string out_path = flag_or(flags, "out", "");
    if (!out_path.empty()) {
        std::cout << ", wrote " << out_path;
    }
    std::cout << '\n';
}

/// `bench`: run the canonical perf suite and emit the machine-readable
/// BENCH JSON that records the repo's optimizer-latency trajectory.
int cmd_bench(const Flags& flags)
{
    BenchOptions options = suite_options_from_flags(flags);
    options.quick = flags.count("quick") != 0;
    options.compare_baseline = flags.count("compare") != 0;
    const std::optional<BenchReport> report = run_suite(flags, options, run_bench);
    if (!report) {
        return 1;
    }
    if (flags.count("json") == 0) {
        Table table({"scenario", "t_p50", "t_min", "speedup", "n_opt", "k/site", "pack calls",
                     "cache hits"});
        for (const BenchCaseResult& result : report->results) {
            if (!result.ok) {
                table.add_row({result.name, "-", "-", "-", "-", "-", "-",
                               "error: " + result.error});
                continue;
            }
            std::string speedup = "-";
            if (result.baseline_wall && result.wall.p50 > 0) {
                char text[32];
                std::snprintf(text, sizeof text, "%.1fx",
                              result.baseline_wall->p50 / result.wall.p50);
                speedup = text;
            }
            table.add_row({result.name, format_seconds(result.wall.p50),
                           format_seconds(result.wall.min), speedup,
                           std::to_string(result.fingerprint.sites),
                           std::to_string(result.fingerprint.channels_per_site),
                           std::to_string(result.stats.packing.pack_calls),
                           std::to_string(result.stats.packing.pack_cache_hits)});
        }
        print_suite_table(flags, *report, table);
    }
    if (!report->all_ok()) {
        std::cerr << "error: bench suite had failing scenarios or fingerprint mismatches\n";
        return 1;
    }
    return 0;
}

int cmd_certify(const Flags& flags)
{
    const std::optional<BenchReport> report =
        run_suite(flags, suite_options_from_flags(flags), run_certify);
    if (!report) {
        return 1;
    }
    if (flags.count("json") == 0) {
        Table table({"scenario", "LB", "exact", "step1", "binpack", "gap", "B&B nodes",
                     "certified", "t_p50"});
        for (const BenchCaseResult& result : report->results) {
            if (!result.ok) {
                table.add_row({result.name, "-", "-", "-", "-", "-", "-", "-",
                               "error: " + result.error});
                continue;
            }
            if (!result.exact) {
                table.add_row(
                    {result.name, "-", "-", "-", "-", "-", "-", "-", "no exact record"});
                continue;
            }
            const ExactGapInfo& gap = *result.exact;
            table.add_row({result.name, std::to_string(gap.lower_bound_wires),
                           std::to_string(gap.exact_wires), std::to_string(gap.step1_wires),
                           std::to_string(gap.binpack_wires), std::to_string(gap.exact_gap),
                           std::to_string(gap.bnb_nodes), gap.certified ? "yes" : "NO",
                           format_seconds(result.wall.p50)});
        }
        print_suite_table(flags, *report, table);
    }
    if (!report->all_ok()) {
        std::cerr << "error: certify suite had failing scenarios\n";
        return 1;
    }
    return 0;
}

int cmd_flow(const Flags& flags)
{
    const Soc soc = load_soc_argument(flags);
    const TestCell wafer_cell = cell_from_flags(flags);
    FinalTestCell final_cell;
    final_cell.channels =
        parse_int_flag("final-channels", flag_or(flags, "final-channels", "1024"));
    final_cell.max_handler_sites =
        parse_int_flag("handler-sites", flag_or(flags, "handler-sites", "8"));

    FlowOptions options;
    options.wafer = options_from_flags(flags);
    options.wafer.yields.manufacturing_yield =
        parse_double_flag("pm", flag_or(flags, "pm", "0.9"));
    if (flags.count("final-retest") != 0) {
        options.final_retest = FinalRetest::through_erpct;
    }

    const FlowPlan plan = plan_flow(soc, wafer_cell, final_cell, options);
    Table table({"stage", "sites", "touchdown", "devices/hour"});
    table.add_row({"wafer (E-RPCT)", std::to_string(plan.wafer.sites),
                   format_seconds(plan.wafer.touchdown_time),
                   format_throughput(plan.wafer.devices_per_hour)});
    table.add_row({"final (all pins)", std::to_string(plan.final.sites),
                   format_seconds(plan.final.touchdown_time),
                   format_throughput(plan.final.devices_per_hour)});
    std::cout << table << '\n';
    std::cout << "final testers per wafer tester: " << plan.final_testers_per_wafer_tester
              << "\ntester time per shipped device: "
              << format_seconds(plan.tester_seconds_per_shipped_device) << '\n';
    return 0;
}

int cmd_inspect(const Flags& flags)
{
    const Soc soc = load_soc_argument(flags);
    const SocStats stats = soc.stats();
    std::cout << "SOC " << soc.name() << ": " << stats.module_count << " modules ("
              << stats.scan_tested_modules << " scan-tested)\n"
              << "scan flip-flops: " << stats.total_scan_flip_flops << "\n"
              << "patterns:        " << stats.total_patterns << "\n"
              << "test data:       " << stats.total_test_data_volume_bits << " bits\n\n";

    Table table({"module", "in", "out", "bidir", "chains", "scan FFs", "patterns"});
    for (const Module& m : soc.modules()) {
        table.add_row({m.name(), std::to_string(m.inputs()), std::to_string(m.outputs()),
                       std::to_string(m.bidirs()), std::to_string(m.scan_chain_count()),
                       std::to_string(m.total_scan_flip_flops()), std::to_string(m.patterns())});
    }
    std::cout << table;
    return 0;
}

int cmd_generate(const Flags& flags)
{
    const std::string profile = flag_or(flags, "profile", "");
    const std::string out = flag_or(flags, "out", "");
    if (profile.empty() || out.empty()) {
        throw ValidationError("generate requires --profile <name> and --out <file>");
    }
    const Soc soc = make_benchmark_soc(profile);
    save_soc_file(out, soc);
    std::cout << "wrote " << out << " (" << soc.module_count() << " modules)\n";
    return 0;
}

int cmd_help()
{
    std::cout <<
        "mst_cli - on-chip test infrastructure design for multi-site testing\n"
        "\n"
        "commands:\n"
        "  optimize --soc <name|path> [--channels N] [--depth 7M] [--clock HZ]\n"
        "           [--index S] [--contact S] [--broadcast] [--abort-on-fail]\n"
        "           [--retest] [--pc P] [--pm P] [--step1-only] [--gantt] [--json]\n"
        "           [--threads N] [--exact] [--exact-budget-ms N]\n"
        "           (--threads caps the table-build and exact-solver fan-outs;\n"
        "            the solution is byte-identical at any thread count;\n"
        "            --exact certifies Step 1 with the branch-and-bound solver,\n"
        "            --exact-budget-ms caps it by a deterministic node budget)\n"
        "  batch    --socs <list> [--channels <list>] [--depths <list>]\n"
        "           [--threads N] [optimize flags] [--json]\n"
        "           (cross product of comma-separated lists, run in parallel)\n"
        "  sweep    --spec <file> --out <dir> [--shards N] [--workers N]\n"
        "           [--threads N] [--list] [--json] [--max-restarts N]\n"
        "           [--backoff-ms N] [--hang-timeout-ms N] [--drain-timeout-ms N]\n"
        "           [--fault-plan P]\n"
        "           (sharded, resumable scenario sweep from a declarative spec\n"
        "            file; completed shards checkpoint to <dir>/shard-*.msr and\n"
        "            a rerun resumes instead of recomputing — the final\n"
        "            report.json is byte-identical to an uninterrupted run at\n"
        "            any shard/worker/thread count. Crashed or hung workers\n"
        "            are restarted with capped backoff; a scenario that keeps\n"
        "            killing its worker is quarantined after --max-restarts\n"
        "            consecutive failures. SIGTERM/SIGINT drains workers\n"
        "            (--drain-timeout-ms, then SIGKILL) and exits 130/137 with\n"
        "            checkpoints kept for resume. --list previews the\n"
        "            expansion; see docs/sweep.md and docs/robustness.md)\n"
        "  serve    [--threads N] [--tables-cache N] [--memo N]\n"
        "           [--listen host:port] [--port-file F] [--max-connections N]\n"
        "           [--queue N] [--conn-queue N] [--idle-timeout-ms N]\n"
        "           [--read-timeout-ms N] [--write-timeout-ms N]\n"
        "           [--max-frame-bytes N] [--processes N] [--shm BYTES]\n"
        "           [--shm-name /name] [--fault-plan P]\n"
        "           (persistent request loop: one JSON request per line, one\n"
        "            JSON response per line; SOC time tables and solutions are\n"
        "            cached across requests, and so is each inline soc_text's\n"
        "            parse and fingerprint (keyed by its exact bytes; a path\n"
        "            is re-read every time). --tables-cache bounds the\n"
        "            distinct SOCs of both SOC caches. --listen serves the\n"
        "            same protocol over TCP: streaming or ordered responses,\n"
        "            bounded request queues, graceful SIGTERM drain; see\n"
        "            docs/protocol.md.\n"
        "            exhausted accepts shed an idle connection and back off;\n"
        "            memoized answers are still served while the admission\n"
        "            queue refuses new optimize work. --processes N forks a\n"
        "            supervised prefork pool over one shared listener: dead\n"
        "            workers restart with capped backoff, --port-file appears\n"
        "            only when the pool is ready. --shm attaches a crash-safe\n"
        "            shared-memory cache tier (docs/shm.md); when the segment\n"
        "            is unusable the server degrades to local caches instead\n"
        "            of failing. responses are byte-identical for the same\n"
        "            ordered request stream at any process/thread count,\n"
        "            shm on or off)\n"
        "  replay   <file> [--threads N] [--tables-cache N] [--memo N]\n"
        "           (run a JSON-lines request file concurrently; responses\n"
        "            print in request order at any thread count)\n"
        "  bench    [--quick] [--repeat N] [--filter substr] [--compare]\n"
        "           [--threads N] [--out BENCH_optimizer.json] [--json]\n"
        "           (canonical perf suite; --compare also times the\n"
        "            from-scratch baseline and cross-checks fingerprints;\n"
        "            --threads caps the intra-scenario concurrency)\n"
        "  certify  [--filter substr] [--repeat N] [--threads N]\n"
        "           [--out BENCH_certify.json] [--json]\n"
        "           (exact-optimality gap suite: branch-and-bound vs Step 1 vs\n"
        "            bin-packing on every <= 14-module scenario; B&B node\n"
        "            counts are byte-identical at any thread count)\n"
        "  flow     --soc <name|path> [optimize flags] [--final-channels N]\n"
        "           [--handler-sites N] [--final-retest]\n"
        "  inspect  --soc <name|path>\n"
        "  generate --profile <name> --out <file>\n"
        "  help\n"
        "\n"
        "benchmark SOCs: d695 p22810 p34392 p93791 pnx8550\n"
        "request schema: protocol v1, see docs/protocol.md and README.md\n"
        "fault injection: --fault-plan / MST_FAULT_PLAN \"point:action@N[*R][=ERR]\"\n"
        "                 (deterministic test-only failures; docs/robustness.md)\n";
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        // Process-wide fault plan from the environment (--fault-plan on
        // sweep/serve replaces it). Installed before dispatch so every
        // instrumented code path, whichever subcommand reaches it, sees
        // the same armed plan (docs/robustness.md).
        if (const char* env = std::getenv("MST_FAULT_PLAN");
            env != nullptr && *env != '\0') {
            mst::fault::install_plan(mst::fault::parse_plan(env));
        }
        if (const char* env = std::getenv("MST_FAULT_ATTEMPT");
            env != nullptr && *env != '\0') {
            mst::fault::set_attempt(std::atoi(env));
        }
        if (argc < 2) {
            return cmd_help();
        }
        const std::string command = argv[1];
        std::vector<std::string> args(argv + 2, argv + argc);

        if (command == "optimize") {
            return cmd_optimize(cli::parse_flags(
                args, command,
                std::vector<FlagSpec>{{"soc", true}, {"gantt", false}, {"json", false},
                                      {"threads", true}} +
                    cell_flags + option_flags));
        }
        if (command == "batch") {
            return cmd_batch(cli::parse_flags(
                args, command,
                std::vector<FlagSpec>{{"socs", true}, {"channels", true}, {"depths", true},
                                      {"depth", true}, {"threads", true}, {"clock", true},
                                      {"index", true}, {"contact", true}, {"json", false}} +
                    option_flags));
        }
        if (command == "sweep") {
            return cmd_sweep(cli::parse_flags(
                args, command,
                {{"spec", true}, {"out", true}, {"shards", true}, {"workers", true},
                 {"threads", true}, {"list", false}, {"json", false},
                 {"max-restarts", true}, {"backoff-ms", true}, {"hang-timeout-ms", true},
                 {"drain-timeout-ms", true}, {"fault-plan", true}}));
        }
        if (command == "serve") {
            return cmd_serve(cli::parse_flags(
                args, command,
                std::vector<FlagSpec>{{"fault-plan", true}} + service_flags + server_flags));
        }
        if (command == "replay") {
            if (args.empty() || args.front().rfind("--", 0) == 0) {
                throw ValidationError("replay requires a request file: mst replay <file>");
            }
            const std::string path = args.front();
            args.erase(args.begin());
            return cmd_replay(path, cli::parse_flags(args, command, service_flags));
        }
        if (command == "bench") {
            return cmd_bench(cli::parse_flags(
                args, command,
                {{"quick", false}, {"compare", false}, {"filter", true},
                 {"repeat", true}, {"out", true}, {"json", false}, {"threads", true}}));
        }
        if (command == "certify") {
            return cmd_certify(cli::parse_flags(
                args, command,
                {{"filter", true}, {"repeat", true}, {"out", true}, {"json", false},
                 {"threads", true}}));
        }
        if (command == "flow") {
            return cmd_flow(cli::parse_flags(
                args, command,
                std::vector<FlagSpec>{{"soc", true}, {"final-channels", true},
                                      {"handler-sites", true}, {"final-retest", false}} +
                    cell_flags + option_flags));
        }
        if (command == "inspect") {
            return cmd_inspect(cli::parse_flags(args, command, {{"soc", true}}));
        }
        if (command == "generate") {
            return cmd_generate(
                cli::parse_flags(args, command, {{"profile", true}, {"out", true}}));
        }
        if (command == "help" || command == "--help") {
            return cmd_help();
        }
        std::cerr << "unknown command '" << command << "'\n";
        return 2;
    } catch (const mst::Error& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "unexpected error: " << e.what() << '\n';
        return 1;
    }
}
