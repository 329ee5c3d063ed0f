#include "scenario/sweep.hpp"

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <system_error>
#include <thread>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "common/signals.hpp"
#include "common/supervisor.hpp"
#include "report/solution_json.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/sweep_records.hpp"

namespace mst {

namespace {

std::string shard_path(const std::string& out_dir, int shard)
{
    char name[32];
    std::snprintf(name, sizeof name, "shard-%04d.msr", shard);
    return out_dir + "/" + name;
}

/// The scenario indices of one round-robin shard, ascending.
std::vector<std::uint32_t> shard_indices(std::size_t scenario_count, int shard, int shards)
{
    std::vector<std::uint32_t> indices;
    for (std::size_t i = static_cast<std::size_t>(shard); i < scenario_count;
         i += static_cast<std::size_t>(shards)) {
        indices.push_back(static_cast<std::uint32_t>(i));
    }
    return indices;
}

/// The shard's checkpoint, if it is complete and every identity field
/// matches the current run: same spec, same partition, same indices.
std::optional<ShardFile> load_checkpoint(const std::string& out_dir, int shard, int shards,
                                         std::uint64_t spec_fingerprint,
                                         std::size_t scenario_count)
{
    std::optional<ShardFile> file = read_shard_file(shard_path(out_dir, shard));
    const std::vector<std::uint32_t> indices = shard_indices(scenario_count, shard, shards);
    if (!file || !file->complete || file->shard != static_cast<std::uint32_t>(shard) ||
        file->shard_count != static_cast<std::uint32_t>(shards) ||
        file->spec_fingerprint != spec_fingerprint ||
        file->records.size() != indices.size()) {
        return std::nullopt;
    }
    for (std::size_t i = 0; i < indices.size(); ++i) {
        if (file->records[i].index != indices[i]) {
            return std::nullopt;
        }
    }
    return file;
}

/// Run one scenario through the shared per-scenario step. `tables` is
/// the process's table sets, one per distinct Soc, built on first use;
/// the first scenario of each SOC therefore pays for the build in its
/// wall time.
SweepRecord run_one(const Scenario& scenario, std::uint32_t index, int threads,
                    std::map<const Soc*, SharedTables>& tables)
{
    SweepRecord record;
    record.index = index;
    Scenario job = scenario;
    job.options.threads = threads;

    Stopwatch stopwatch;
    const SharedTables* shared = nullptr;
    if (const Soc* soc = scenario.soc.get(); soc != nullptr) {
        auto slot = tables.find(soc);
        if (slot == tables.end()) {
            slot = tables.emplace(soc, build_shared_tables(*soc, threads)).first;
        }
        shared = &slot->second;
    }
    const ScenarioResult result = run_scenario(job, shared);
    record.wall_ns = static_cast<std::uint64_t>(stopwatch.elapsed() * 1e9);
    if (!result.ok()) {
        record.error_kind = result.error_kind;
        record.error = result.error;
        return record;
    }
    const Solution& solution = *result.solution;
    record.ok = true;
    record.sites = static_cast<std::uint32_t>(solution.sites);
    record.channels_per_site = static_cast<std::uint32_t>(solution.channels_per_site);
    record.test_cycles = static_cast<std::uint64_t>(solution.test_cycles);
    record.devices_per_hour = solution.throughput.devices_per_hour;
    record.pack_calls = static_cast<std::uint64_t>(solution.stats.packing.pack_calls);
    record.pack_cache_hits = static_cast<std::uint64_t>(solution.stats.packing.pack_cache_hits);
    record.greedy_passes = static_cast<std::uint64_t>(solution.stats.packing.greedy_passes);
    record.depth_profiles = static_cast<std::uint64_t>(solution.stats.packing.depth_profiles);
    record.pruned_packs = static_cast<std::uint64_t>(solution.stats.packing.pruned_packs);
    record.site_points = static_cast<std::uint64_t>(solution.stats.site_points);
    return record;
}

/// The canonical record for a quarantined scenario. Fixed text, no
/// counts or wall-clock detail: quarantined entries must be
/// byte-identical across runs that quarantine the same scenario.
SweepRecord quarantine_record(std::uint32_t index)
{
    SweepRecord record;
    record.index = index;
    record.ok = false;
    record.error_kind = SweepErrorKind::worker_crash;
    record.error = "scenario quarantined after repeated worker crashes";
    return record;
}

/// Execute one shard into its checkpoint file. Scenarios in
/// `quarantined` are recorded as worker_crash errors instead of
/// running; every executed scenario is preceded by a heartbeat carrying
/// `attempt`. Returns false when the abort_after_records test hook
/// tripped mid-shard (the file is left without a trailer, exactly like
/// a killed process would). `current` tracks the scenario in flight so
/// an inline caller can identify the poison after a thrown
/// checkpoint-write failure. `tables` is the process's table-set map
/// (see run_one).
bool run_shard(const std::vector<Scenario>& scenarios, const std::string& out_dir, int shard,
               int shards, std::uint64_t spec_fingerprint, int threads,
               std::map<const Soc*, SharedTables>& tables, std::uint32_t attempt,
               const std::set<std::uint32_t>& quarantined, std::size_t abort_after_records,
               std::size_t& written_total, std::optional<std::uint32_t>* current = nullptr)
{
    const std::vector<std::uint32_t> indices = shard_indices(scenarios.size(), shard, shards);
    ShardWriter writer(shard_path(out_dir, shard), static_cast<std::uint32_t>(shard),
                       static_cast<std::uint32_t>(shards), spec_fingerprint,
                       static_cast<std::uint32_t>(indices.size()));
    for (const std::uint32_t index : indices) {
        if (abort_after_records != 0 && written_total >= abort_after_records) {
            return false;
        }
        if (current != nullptr) {
            *current = index;
        }
        if (quarantined.count(index) != 0) {
            writer.write(quarantine_record(index));
            ++written_total;
            continue;
        }
        writer.heartbeat(index, attempt);
        if (const std::errc fault = MST_FAULTPOINT("sweep.scenario"); fault != std::errc{}) {
            SweepRecord record;
            record.index = index;
            record.ok = false;
            record.error_kind = SweepErrorKind::other;
            record.error = "injected scenario fault: " + std::make_error_code(fault).message();
            writer.write(record);
            ++written_total;
            continue;
        }
        writer.write(run_one(scenarios[index], index, threads, tables));
        ++written_total;
    }
    writer.finish();
    return true;
}

/// One shard's restart bookkeeping, shared by the inline and the
/// forked execution paths.
struct ShardRetry {
    int consecutive = 0;
    int total = 0;
    int attempts = 0; ///< executions started
    std::set<std::uint32_t> quarantined;
};

/// Count one failed attempt of a shard of `shard_size` scenarios whose
/// scenario in flight was `in_flight`. After max_restarts consecutive
/// failures that scenario is quarantined and the shard gets a fresh
/// budget. Returns the backoff before the restart, or nullopt when the
/// shard must give up instead: past the hard cap on total failures, or
/// due a quarantine with no scenario in flight to blame.
std::optional<std::chrono::milliseconds> absorb_failure(ShardRetry& retry,
                                                        std::optional<std::uint32_t> in_flight,
                                                        std::size_t shard_size,
                                                        const SweepOptions& options,
                                                        SweepOutcome& outcome)
{
    ++retry.consecutive;
    ++retry.total;
    ++outcome.worker_failures;
    if (retry.total > (options.max_restarts + 1) * static_cast<int>(shard_size + 1)) {
        return std::nullopt;
    }
    if (retry.consecutive >= options.max_restarts) {
        if (!in_flight) {
            return std::nullopt;
        }
        retry.quarantined.insert(*in_flight);
        outcome.quarantined.push_back(*in_flight);
        retry.consecutive = 0;
    }
    ++outcome.restarts;
    return supervisor::capped_backoff(options.backoff_base_ms, options.backoff_cap_ms,
                                      retry.total - 1);
}

/// The deterministic merged report: scenario identities and results
/// only. No wall times, shard geometry, or thread counts — see the
/// determinism contract in sweep.hpp.
void write_report(const std::string& path, const std::string& sweep_name,
                  const std::vector<Scenario>& scenarios,
                  const std::vector<SweepRecord>& by_index)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"mst.sweep\",\n";
    out << "  \"schema_version\": 1,\n";
    out << "  \"sweep\": \"" << json_escape(sweep_name) << "\",\n";
    out << "  \"scenario_count\": " << scenarios.size() << ",\n";
    out << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < by_index.size(); ++i) {
        const SweepRecord& record = by_index[i];
        out << "    { \"index\": " << record.index << ", \"name\": \""
            << json_escape(scenarios[record.index].name) << "\", \"ok\": "
            << (record.ok ? "true" : "false");
        if (record.ok) {
            out << ",\n      \"fingerprint\": { \"sites\": " << record.sites
                << ", \"channels_per_site\": " << record.channels_per_site
                << ", \"test_cycles\": " << record.test_cycles
                << ", \"devices_per_hour\": " << json_number(record.devices_per_hour)
                << " },\n";
            out << "      \"optimizer_stats\": { \"pack_calls\": " << record.pack_calls
                << ", \"pack_cache_hits\": " << record.pack_cache_hits
                << ", \"greedy_passes\": " << record.greedy_passes
                << ", \"depth_profiles\": " << record.depth_profiles
                << ", \"pruned_packs\": " << record.pruned_packs
                << ", \"site_points\": " << record.site_points << " } }";
        } else {
            out << ", \"error_kind\": \"" << sweep_error_kind_name(record.error_kind)
                << "\", \"error\": \"" << json_escape(record.error) << "\" }";
        }
        out << (i + 1 < by_index.size() ? ",\n" : "\n");
    }
    out << "  ]\n";
    out << "}\n";

    if (const std::errc fault = MST_FAULTPOINT("sweep.report_write"); fault != std::errc{}) {
        throw ValidationError("sweep report write failed (injected fault): " + path);
    }
    if (!supervisor::write_file_atomic(path, out.str())) {
        throw ValidationError("cannot write sweep report: " + path);
    }
}

void ensure_directory(const std::string& path)
{
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
        return;
    }
    throw ValidationError("cannot create sweep output directory " + path + ": " +
                          std::strerror(errno));
}

TimingStats stats_over(const std::vector<SweepRecord>& records)
{
    std::vector<Seconds> samples;
    samples.reserve(records.size());
    for (const SweepRecord& record : records) {
        samples.push_back(static_cast<Seconds>(record.wall_ns) * 1e-9);
    }
    return TimingStats::from_samples(std::move(samples));
}

} // namespace

SweepOutcome run_sweep(const std::string& sweep_name, const std::vector<Scenario>& scenarios,
                       const SweepOptions& options)
{
    if (scenarios.empty()) {
        throw ValidationError("sweep has no scenarios");
    }
    if (options.out_dir.empty()) {
        throw ValidationError("sweep output directory not set");
    }
    if (options.shards < 1) {
        throw ValidationError("sweep shard count must be at least 1");
    }
    if (options.workers < 1) {
        throw ValidationError("sweep worker count must be at least 1");
    }
    if (options.max_restarts < 1) {
        throw ValidationError("sweep max_restarts must be at least 1");
    }
    ensure_directory(options.out_dir);

    // Never more shards than scenarios: empty shards would be pure
    // bookkeeping noise and break the "one worker per pending shard"
    // intuition.
    const int shards =
        std::min<int>(options.shards, static_cast<int>(scenarios.size()));
    const std::uint64_t spec_fingerprint = scenario_list_fingerprint(scenarios);

    SweepOutcome outcome;
    outcome.scenario_count = scenarios.size();
    // One table set per distinct SOC in this process, built on first
    // use. The supervisor does no scenario work, so each forked worker
    // starts from this empty map and builds once per SOC it meets.
    std::map<const Soc*, SharedTables> tables;
    outcome.report_path = options.out_dir + "/report.json";

    const auto checkpoint = [&](int shard) {
        return load_checkpoint(options.out_dir, shard, shards, spec_fingerprint, scenarios.size());
    };

    // Phase 1: classify shards as complete checkpoints or pending work.
    std::vector<int> pending;
    std::vector<bool> resumed(static_cast<std::size_t>(shards), false);
    for (int shard = 0; shard < shards; ++shard) {
        if (const std::optional<ShardFile> done = checkpoint(shard)) {
            resumed[static_cast<std::size_t>(shard)] = true;
            outcome.resumed += done->records.size();
            continue;
        }
        // Partial or foreign checkpoint: recompute from scratch.
        std::remove(shard_path(options.out_dir, shard).c_str());
        pending.push_back(shard);
    }

    // Phase 2: execute pending shards — inline with retry/quarantine,
    // or fanned out across supervised forked worker processes (one fork
    // per shard, at most W in flight). A child never uses the pool it
    // inherits: Executor::global() hands it a fresh one.
    const int workers = std::min<int>(options.workers, static_cast<int>(pending.size()));
    if (workers > 1) {
        struct Running {
            int shard = 0;
            supervisor::Child child;
        };
        std::vector<ShardRetry> retries(static_cast<std::size_t>(shards));
        std::vector<supervisor::Clock::time_point> not_before(static_cast<std::size_t>(shards));
        std::deque<int> queue(pending.begin(), pending.end());
        std::vector<Running> running;
        // The watchdog's progress value: the shard file's size.
        const auto progress_of = [&](int shard) -> std::uint64_t {
            std::error_code missing;
            return std::filesystem::file_size(shard_path(options.out_dir, shard), missing);
        };

        // A worker for `shard` failed (death, hang, spawn failure): the
        // heartbeat trail in its checkpoint names the scenario in flight.
        // Requeue the shard behind the backoff, or give up on the sweep.
        auto handle_failure = [&](int shard, const char* what) {
            ShardRetry& retry = retries[static_cast<std::size_t>(shard)];
            const std::optional<ShardFile> partial =
                read_shard_file(shard_path(options.out_dir, shard));
            const std::optional<std::chrono::milliseconds> delay = absorb_failure(
                retry, partial ? partial->poison_index() : std::nullopt,
                shard_indices(scenarios.size(), shard, shards).size(), options, outcome);
            if (!delay) {
                throw ValidationError("sweep shard " + std::to_string(shard) +
                                      " keeps failing (" + what + "); giving up");
            }
            not_before[static_cast<std::size_t>(shard)] = supervisor::Clock::now() + *delay;
            queue.push_back(shard);
        };

        while (!queue.empty() || !running.empty()) {
            if (ShutdownLatch::global().requested()) {
                // Forward the shutdown to every live worker and reap it;
                // stragglers past the drain grace are SIGKILLed and
                // reported via drain_killed so the CLI can exit nonzero.
                // Checkpoints written so far stay on disk for a resume.
                std::vector<pid_t> pids;
                for (const Running& slot : running) {
                    pids.push_back(slot.child.pid);
                }
                outcome.drain_killed = supervisor::drain(std::move(pids), options.drain_timeout_ms);
                outcome.interrupted = true;
                outcome.executed = 0;
                outcome.report_path.clear(); // no report was written
                return outcome;
            }
            // Spawn ready shards into free worker slots. Shards still in
            // backoff rotate to the back of the queue.
            bool progressed = false;
            std::size_t examine = queue.size();
            while (examine-- > 0 && static_cast<int>(running.size()) < workers &&
                   !queue.empty()) {
                const int shard = queue.front();
                queue.pop_front();
                ShardRetry& retry = retries[static_cast<std::size_t>(shard)];
                if (not_before[static_cast<std::size_t>(shard)] > supervisor::Clock::now()) {
                    queue.push_back(shard);
                    continue;
                }
                if (MST_FAULTPOINT("sweep.worker_spawn") != std::errc{}) {
                    handle_failure(shard, "injected spawn fault");
                    continue;
                }
                // The child runs exactly one shard. Its heartbeats carry
                // the attempt number; a SIGTERM kills it outright, since
                // a shard cut short is recomputed on resume anyway.
                const pid_t pid = supervisor::spawn(
                    retry.attempts,
                    [&] {
                        std::size_t written = 0;
                        run_shard(scenarios, options.out_dir, shard, shards, spec_fingerprint,
                                  options.threads, tables,
                                  static_cast<std::uint32_t>(retry.attempts), retry.quarantined,
                                  0, written);
                        return 0;
                    },
                    supervisor::ChildSignals::reset);
                if (pid < 0) {
                    handle_failure(shard, "fork failed");
                    continue;
                }
                ++retry.attempts;
                running.push_back({shard, {pid, progress_of(shard), supervisor::Clock::now()}});
                progressed = true;
            }

            // Reap finished workers; watchdog the rest. Progress is the
            // shard file's size — every scenario writes at least a
            // heartbeat first, so a wedged optimize call stops the
            // growth and gets its worker SIGKILLed.
            for (std::size_t i = 0; i < running.size();) {
                Running& slot = running[i];
                int status = 0;
                const supervisor::ChildState state = supervisor::check(
                    slot.child, progress_of(slot.shard), options.hang_timeout_ms, &status);
                if (state == supervisor::ChildState::running) {
                    ++i;
                    continue;
                }
                const int shard = slot.shard;
                running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
                progressed = true;
                if (state == supervisor::ChildState::hung) {
                    handle_failure(shard, "hung worker killed by watchdog");
                } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                    handle_failure(shard, "worker died");
                } else if (!checkpoint(shard)) {
                    // Exit 0 only counts if the checkpoint it left behind
                    // validates end to end.
                    handle_failure(shard, "worker left an invalid checkpoint");
                }
            }
            if (!progressed) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        }
    } else {
        // Inline execution gets the same retry/quarantine treatment for
        // checkpoint-layer failures (the scenario layer already maps its
        // own exceptions into typed error records).
        std::size_t written = 0;
        for (const int shard : pending) {
            ShardRetry retry;
            const std::size_t shard_size =
                shard_indices(scenarios.size(), shard, shards).size();
            for (;;) {
                std::optional<std::uint32_t> current;
                const int attempt = retry.attempts++;
                try {
                    fault::set_attempt(attempt);
                    const bool finished = run_shard(
                        scenarios, options.out_dir, shard, shards, spec_fingerprint,
                        options.threads, tables, static_cast<std::uint32_t>(attempt),
                        retry.quarantined, options.abort_after_records, written, &current);
                    if (!finished) {
                        fault::set_attempt(0);
                        outcome.aborted = true;
                        outcome.executed = written;
                        return outcome;
                    }
                    break;
                } catch (const Error&) {
                    const std::optional<std::chrono::milliseconds> delay =
                        absorb_failure(retry, current, shard_size, options, outcome);
                    if (!delay) {
                        fault::set_attempt(0);
                        throw;
                    }
                    std::this_thread::sleep_for(*delay);
                }
            }
        }
        fault::set_attempt(0);
    }
    std::sort(outcome.quarantined.begin(), outcome.quarantined.end());

    // Phase 3: merge every shard checkpoint into the deterministic
    // report, and fold wall times into the (non-deterministic) latency
    // summaries.
    std::vector<SweepRecord> by_index(scenarios.size());
    std::vector<bool> seen(scenarios.size(), false);
    for (int shard = 0; shard < shards; ++shard) {
        const std::optional<ShardFile> file = checkpoint(shard);
        if (!file) {
            throw ValidationError("sweep shard file missing or invalid after execution: " +
                                  shard_path(options.out_dir, shard));
        }
        ShardTiming timing;
        timing.shard = shard;
        timing.scenarios = static_cast<int>(file->records.size());
        timing.resumed = resumed[static_cast<std::size_t>(shard)];
        timing.wall = stats_over(file->records);
        for (const SweepRecord& record : file->records) {
            if (!record.ok) {
                ++timing.failed;
                ++outcome.failed;
            }
            seen[record.index] = true;
            by_index[record.index] = record;
        }
        outcome.shards.push_back(std::move(timing));
    }
    if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
        throw ValidationError("sweep merge did not cover every scenario");
    }
    outcome.executed = scenarios.size() - outcome.resumed;
    outcome.total_wall = stats_over(by_index);

    write_report(outcome.report_path, sweep_name, scenarios, by_index);
    return outcome;
}

} // namespace mst
