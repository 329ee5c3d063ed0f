// Sharded, resumable sweep engine over an expanded ScenarioSpec — the
// ROADMAP item-5 workhorse behind `mst sweep`.
//
// An expanded scenario list is partitioned round-robin into S shards
// (scenario i lands in shard i % S). Each shard streams its results
// into a compact binary checkpoint file (shard-NNNN.msr, format in
// sweep_records.hpp); a shard whose file carries a valid trailer is
// complete and a resumed run reuses it without recomputation. With
// W > 1 workers a supervisor forks one worker process per pending
// shard (at most W in flight) and watches each of them.
//
// Each scenario runs through the scenario layer's per-scenario step
// (scenario_runner.hpp) under its table-sharing rule: one table set
// per distinct Soc per process, built on first use. An inline run
// builds each SOC once across all shards; a forked worker builds once
// per SOC its shard meets.
//
// Supervision runs on common/supervisor (docs/robustness.md). Every
// scenario is preceded by a heartbeat record in the shard file: the
// file's growth is the watchdog's progress signal, and the trail names
// the scenario a dead worker was running. After `max_restarts`
// consecutive failures of one shard that scenario is quarantined as a
// typed `worker_crash` record, so one poison scenario cannot sink the
// run. Inline (workers == 1) runs apply the same rule to
// checkpoint-write failures.
//
// Determinism contract: the merged report.json contains scenario
// results only — name, solution fingerprint, optimizer work counters,
// or the error — never wall times, shard indices, shard counts, or
// thread counts. The report is therefore byte-identical across any
// combination of shard count, worker count, thread count, and
// kill/resume cycles of the same spec. Latency (per-shard and total
// p50/p95/p99 over per-scenario wall times) is returned in the
// SweepOutcome for the CLI to print, and is explicitly outside the
// determinism contract. A scenario's wall time includes the table
// build only when it is the first scenario of its SOC in the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perf/stopwatch.hpp"
#include "scenario/scenario_spec.hpp"

namespace mst {

struct SweepOptions {
    /// Directory for shard checkpoints and the final report.json;
    /// created if missing. Required.
    std::string out_dir;
    int shards = 8;
    /// Worker processes. 1 runs everything inline in the calling
    /// process; W > 1 forks W children. Fork happens before the parent
    /// does any optimizer work, so the lazily-started executor pool is
    /// never cloned into a child.
    int workers = 1;
    /// Intra-scenario optimizer threads (OptimizeOptions::threads);
    /// 0 = hardware concurrency.
    int threads = 0;
    /// Test hook: stop the run abruptly (no trailer, no report) after
    /// this many records have been written by this invocation — a
    /// deterministic stand-in for SIGKILL mid-shard. 0 = disabled.
    /// Honored only by inline (workers <= 1) runs.
    std::size_t abort_after_records = 0;

    // Supervision knobs (see the header comment).

    /// Consecutive failures of one shard before the scenario in flight
    /// is quarantined as a worker_crash record.
    int max_restarts = 3;
    /// Restart backoff for retry k is min(backoff_base_ms << k,
    /// backoff_cap_ms) milliseconds. 0 disables sleeping (tests, CI).
    int backoff_base_ms = 100;
    int backoff_cap_ms = 2000;
    /// A supervised worker whose shard file has not grown for this long
    /// is declared hung and SIGKILLed (counts as a crash). 0 disables
    /// the watchdog.
    int hang_timeout_ms = 30000;
    /// SIGTERM-to-SIGKILL grace when a shutdown request interrupts the
    /// supervisor (SweepOutcome::interrupted / drain_killed).
    int drain_timeout_ms = 5000;
};

/// Latency summary of one shard (outside the determinism contract).
struct ShardTiming {
    int shard = 0;
    int scenarios = 0;
    int failed = 0;
    /// True when the shard was reloaded from a complete checkpoint
    /// instead of executed by this invocation.
    bool resumed = false;
    /// Percentiles over the shard's per-scenario optimize wall times.
    TimingStats wall;
};

struct SweepOutcome {
    std::size_t scenario_count = 0;
    std::size_t executed = 0; ///< scenarios computed by this invocation
    std::size_t resumed = 0;  ///< scenarios reloaded from checkpoints
    std::size_t failed = 0;   ///< scenarios that ended in an error record
    /// True when abort_after_records tripped: shard files up to the
    /// abort point are on disk, no report was written.
    bool aborted = false;
    /// True when SIGTERM/SIGINT interrupted the supervisor: live
    /// workers were signaled and reaped, no report was written.
    bool interrupted = false;
    /// True when a worker ignored SIGTERM past the drain grace and had
    /// to be SIGKILLed (the CLI exits nonzero in that case).
    bool drain_killed = false;
    std::string report_path;
    std::vector<ShardTiming> shards;
    /// Worker deaths / hangs / checkpoint-write failures the supervisor
    /// absorbed (each one triggered a shard restart).
    std::size_t worker_failures = 0;
    /// Shard executions restarted by supervision.
    std::size_t restarts = 0;
    /// Scenario indices quarantined as worker_crash records, ascending.
    /// These are the only entries allowed to differ from a fault-free
    /// run's report.
    std::vector<std::uint32_t> quarantined;
    /// Percentiles over every scenario's wall time (resumed ones report
    /// the wall time recorded when they originally ran).
    TimingStats total_wall;
};

/// Run (or resume) a sweep. `sweep_name` is echoed into report.json.
/// Throws ValidationError on unusable options, an unwritable out_dir,
/// or a worker process that died abnormally.
[[nodiscard]] SweepOutcome run_sweep(const std::string& sweep_name,
                                     const std::vector<Scenario>& scenarios,
                                     const SweepOptions& options);

} // namespace mst
