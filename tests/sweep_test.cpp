// Tests of the sharded, resumable sweep engine: checkpoint reuse, the
// determinism contract (report bytes invariant across shard / worker /
// thread counts and kill/resume cycles), and error capture.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "common/signals.hpp"
#include "service/json.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"
#include "scenario/sweep_records.hpp"

namespace mst {
namespace {

/// A self-cleaning sweep output directory under the system temp dir.
class TempDir {
public:
    TempDir()
    {
        char path[] = "/tmp/mst_sweep_test_XXXXXX";
        if (::mkdtemp(path) == nullptr) {
            throw ValidationError("mkdtemp failed");
        }
        path_ = path;
    }

    ~TempDir()
    {
        // Best-effort cleanup of the files the sweep engine creates.
        for (int shard = 0; shard < 64; ++shard) {
            char name[32];
            std::snprintf(name, sizeof name, "shard-%04d.msr", shard);
            std::remove((path_ + "/" + name).c_str());
        }
        std::remove((path_ + "/report.json").c_str());
        ::rmdir(path_.c_str());
    }

    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

std::string read_file(const std::string& path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file.is_open()) << path;
    std::ostringstream out;
    out << file.rdbuf();
    return out.str();
}

bool file_exists(const std::string& path)
{
    return std::ifstream(path).is_open();
}

/// A small, fast workload: two random SOCs x two testers x two
/// variants = 8 scenarios, including one infeasible grid point (2
/// channels cannot carry any of these SOCs).
std::vector<Scenario> small_scenarios()
{
    ScenarioSpec spec;
    spec.name = "sweep-test";
    spec.socs.push_back(SocSource::random("r17", 17, 10));
    spec.socs.push_back(SocSource::random("r23", 23, 10));
    CellPoint budget;
    budget.label = "budget";
    budget.cell.ate.channels = 128;
    budget.cell.ate.vector_memory_depth = 100'000;
    CellPoint tiny;
    tiny.label = "tiny";
    tiny.cell.ate.channels = 2;
    tiny.cell.ate.vector_memory_depth = 10'000;
    spec.cells = {budget, tiny};
    spec.variants.push_back({"plain", {}});
    OptionVariant broadcast;
    broadcast.label = "broadcast";
    broadcast.options.broadcast = BroadcastMode::stimuli;
    spec.variants.push_back(broadcast);
    return expand(spec);
}

SweepOptions options_for(const std::string& out_dir, int shards, int threads)
{
    SweepOptions options;
    options.out_dir = out_dir;
    options.shards = shards;
    options.workers = 1;
    options.threads = threads;
    return options;
}

TEST(Sweep, WritesReportAndShardCheckpoints)
{
    const TempDir dir;
    const std::vector<Scenario> scenarios = small_scenarios();
    const SweepOutcome outcome =
        run_sweep("sweep-test", scenarios, options_for(dir.path(), 4, 1));

    EXPECT_EQ(outcome.scenario_count, 8u);
    EXPECT_EQ(outcome.executed, 8u);
    EXPECT_EQ(outcome.resumed, 0u);
    EXPECT_FALSE(outcome.aborted);
    ASSERT_EQ(outcome.shards.size(), 4u);
    for (const ShardTiming& shard : outcome.shards) {
        EXPECT_EQ(shard.scenarios, 2);
        EXPECT_FALSE(shard.resumed);
        EXPECT_LE(shard.wall.p50, shard.wall.p95);
        EXPECT_LE(shard.wall.p95, shard.wall.p99);
        EXPECT_LE(shard.wall.p99, shard.wall.max);
    }
    EXPECT_EQ(outcome.total_wall.iterations, 8);

    EXPECT_TRUE(file_exists(outcome.report_path));
    for (int shard = 0; shard < 4; ++shard) {
        char name[32];
        std::snprintf(name, sizeof name, "shard-%04d.msr", shard);
        EXPECT_TRUE(file_exists(dir.path() + "/" + name));
    }

    // The infeasible grid points are captured as typed error records.
    const std::string report = read_file(outcome.report_path);
    EXPECT_EQ(outcome.failed, 4u); // 2 SOCs x "tiny" cell x 2 variants
    EXPECT_NE(report.find("\"error_kind\": \"infeasible\""), std::string::npos);
    EXPECT_NE(report.find("\"sweep\": \"sweep-test\""), std::string::npos);
    // Nothing non-deterministic leaks into the report.
    EXPECT_EQ(report.find("wall"), std::string::npos);
    EXPECT_EQ(report.find("shard"), std::string::npos);
}

TEST(Sweep, ScenarioWithoutSocBecomesValidationRecord)
{
    const TempDir dir;
    std::vector<Scenario> scenarios = {small_scenarios().front(), Scenario{}};
    scenarios[1].name = "null-soc";
    const SweepOutcome outcome = run_sweep("sweep-test", scenarios, options_for(dir.path(), 1, 1));

    EXPECT_EQ(outcome.failed, 1u);
    const JsonValue report = JsonValue::parse(read_file(outcome.report_path));
    const std::vector<JsonValue>& entries = report.find("scenarios")->as_array();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_TRUE(entries[0].find("ok")->as_bool());
    EXPECT_FALSE(entries[1].find("ok")->as_bool());
    EXPECT_EQ(entries[1].find("error_kind")->as_string(), "validation");
    EXPECT_NE(entries[1].find("error")->as_string().find("no SOC"), std::string::npos);
}

TEST(Sweep, ReportAgreesWithScenarioRunner)
{
    // The sweep reuses one table set per SOC across its shard loop;
    // run_scenarios builds its own. Both must report the same results,
    // on small SOCs and on a 3000-module narrow-deep one.
    std::vector<Scenario> scenarios = small_scenarios();
    ScenarioSpec deep;
    deep.socs.push_back(SocSource::generated("gen300x-deep", 3000, ScaledShape::narrow_deep));
    CellPoint cell;
    cell.cell.ate.channels = 512;
    cell.cell.ate.vector_memory_depth = 7 * mebi;
    deep.cells = {cell};
    deep.variants.push_back({"plain", {}});
    for (Scenario& scenario : expand(deep)) {
        scenarios.push_back(std::move(scenario));
    }
    const std::vector<ScenarioResult> expected = run_scenarios(scenarios, 1);
    ASSERT_TRUE(expected.back().ok()) << expected.back().error;

    for (const int shards : {1, 3}) {
        const TempDir dir;
        const SweepOutcome outcome =
            run_sweep("sweep-test", scenarios, options_for(dir.path(), shards, 1));
        const JsonValue report = JsonValue::parse(read_file(outcome.report_path));
        const std::vector<JsonValue>& entries = report.find("scenarios")->as_array();
        ASSERT_EQ(entries.size(), scenarios.size());
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const JsonValue& entry = entries[i];
            const ScenarioResult& result = expected[i];
            SCOPED_TRACE("shards=" + std::to_string(shards) + " " + scenarios[i].name);
            ASSERT_EQ(entry.find("ok")->as_bool(), result.ok());
            if (!result.ok()) {
                EXPECT_EQ(entry.find("error_kind")->as_string(),
                          sweep_error_kind_name(result.error_kind));
                EXPECT_EQ(entry.find("error")->as_string(), result.error);
                continue;
            }
            const Solution& solution = *result.solution;
            const JsonValue& fingerprint = *entry.find("fingerprint");
            EXPECT_EQ(fingerprint.find("sites")->as_int(), solution.sites);
            EXPECT_EQ(fingerprint.find("channels_per_site")->as_int(),
                      solution.channels_per_site);
            EXPECT_EQ(fingerprint.find("test_cycles")->as_int(), solution.test_cycles);
            char devices_per_hour[32];
            std::snprintf(devices_per_hour, sizeof devices_per_hour, "%.6g",
                          solution.throughput.devices_per_hour);
            EXPECT_EQ(fingerprint.find("devices_per_hour")->as_number(),
                      std::stod(devices_per_hour));
            const JsonValue& stats = *entry.find("optimizer_stats");
            EXPECT_EQ(stats.find("pack_calls")->as_int(), solution.stats.packing.pack_calls);
            EXPECT_EQ(stats.find("pack_cache_hits")->as_int(),
                      solution.stats.packing.pack_cache_hits);
            EXPECT_EQ(stats.find("greedy_passes")->as_int(),
                      solution.stats.packing.greedy_passes);
            EXPECT_EQ(stats.find("depth_profiles")->as_int(),
                      solution.stats.packing.depth_profiles);
            EXPECT_EQ(stats.find("pruned_packs")->as_int(), solution.stats.packing.pruned_packs);
            EXPECT_EQ(stats.find("site_points")->as_int(), solution.stats.site_points);
        }
    }
}

TEST(Sweep, ReportBytesInvariantAcrossShardAndThreadCounts)
{
    const std::vector<Scenario> scenarios = small_scenarios();

    const TempDir reference_dir;
    (void)run_sweep("sweep-test", scenarios, options_for(reference_dir.path(), 1, 1));
    const std::string reference = read_file(reference_dir.path() + "/report.json");
    ASSERT_FALSE(reference.empty());

    struct Geometry {
        int shards;
        int threads;
    };
    for (const Geometry geometry : {Geometry{4, 1}, Geometry{3, 8}, Geometry{8, 0}}) {
        const TempDir dir;
        (void)run_sweep("sweep-test", scenarios,
                        options_for(dir.path(), geometry.shards, geometry.threads));
        EXPECT_EQ(reference, read_file(dir.path() + "/report.json"))
            << "shards=" << geometry.shards << " threads=" << geometry.threads;
    }
}

TEST(Sweep, CompletedShardsAreReusedWithoutRecomputation)
{
    const TempDir dir;
    const std::vector<Scenario> scenarios = small_scenarios();
    (void)run_sweep("sweep-test", scenarios, options_for(dir.path(), 4, 1));
    const std::string first = read_file(dir.path() + "/report.json");

    const SweepOutcome again =
        run_sweep("sweep-test", scenarios, options_for(dir.path(), 4, 1));
    EXPECT_EQ(again.executed, 0u);
    EXPECT_EQ(again.resumed, 8u);
    for (const ShardTiming& shard : again.shards) {
        EXPECT_TRUE(shard.resumed);
    }
    EXPECT_EQ(first, read_file(dir.path() + "/report.json"));
}

TEST(Sweep, KilledRunResumesToByteIdenticalReport)
{
    const std::vector<Scenario> scenarios = small_scenarios();

    const TempDir reference_dir;
    (void)run_sweep("sweep-test", scenarios, options_for(reference_dir.path(), 4, 1));
    const std::string reference = read_file(reference_dir.path() + "/report.json");

    for (const int resume_threads : {1, 8}) {
        const TempDir dir;
        // Die after three records: shard 0 is complete (2 scenarios),
        // shard 1 is mid-flight with one record and no trailer —
        // exactly the on-disk state a SIGKILL leaves behind.
        SweepOptions abort_options = options_for(dir.path(), 4, 1);
        abort_options.abort_after_records = 3;
        const SweepOutcome aborted =
            run_sweep("sweep-test", scenarios, abort_options);
        EXPECT_TRUE(aborted.aborted);
        EXPECT_EQ(aborted.executed, 3u);
        EXPECT_FALSE(file_exists(dir.path() + "/report.json"));
        EXPECT_TRUE(file_exists(dir.path() + "/shard-0001.msr")); // partial

        const SweepOutcome resumed =
            run_sweep("sweep-test", scenarios, options_for(dir.path(), 4, resume_threads));
        EXPECT_FALSE(resumed.aborted);
        EXPECT_EQ(resumed.resumed, 2u); // shard 0 reused
        EXPECT_EQ(resumed.executed, 6u); // partial shard 1 recomputed
        EXPECT_EQ(reference, read_file(dir.path() + "/report.json"))
            << "resume_threads=" << resume_threads;
    }
}

TEST(Sweep, ForeignAndPartialCheckpointsAreRecomputed)
{
    const TempDir dir;
    const std::vector<Scenario> scenarios = small_scenarios();
    (void)run_sweep("sweep-test", scenarios, options_for(dir.path(), 4, 1));

    // A different scenario list (different fingerprint) must not reuse
    // any of the checkpoints left by the previous spec.
    ScenarioSpec other;
    other.name = "other";
    other.socs.push_back(SocSource::random("r31", 31, 10));
    CellPoint cell;
    cell.cell.ate.channels = 128;
    cell.cell.ate.vector_memory_depth = 100'000;
    other.cells = {cell};
    other.variants.push_back({"plain", {}});
    const std::vector<Scenario> other_scenarios = expand(other);

    const SweepOutcome outcome =
        run_sweep("other", other_scenarios, options_for(dir.path(), 4, 1));
    EXPECT_EQ(outcome.resumed, 0u);
    EXPECT_EQ(outcome.executed, other_scenarios.size());

    // Truncating a completed checkpoint (stripping its trailer) turns
    // it back into pending work instead of poisoning the merge.
    {
        std::ifstream in(dir.path() + "/shard-0000.msr", std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        const std::string content = bytes.str();
        std::ofstream out(dir.path() + "/shard-0000.msr",
                          std::ios::binary | std::ios::trunc);
        out << content.substr(0, content.size() / 2);
    }
    const std::string before = read_file(dir.path() + "/report.json");
    const SweepOutcome repaired =
        run_sweep("other", other_scenarios, options_for(dir.path(), 4, 1));
    EXPECT_GT(repaired.executed, 0u);
    EXPECT_EQ(before, read_file(dir.path() + "/report.json"));
}

/// Installs a fault plan for one test and guarantees the process is
/// disarmed afterwards, whatever the assertions did.
class FaultPlanGuard {
public:
    explicit FaultPlanGuard(const std::string& plan)
    {
        fault::install_plan(fault::parse_plan(plan));
    }
    ~FaultPlanGuard()
    {
        fault::clear_plan();
        fault::set_attempt(0);
    }
    FaultPlanGuard(const FaultPlanGuard&) = delete;
    FaultPlanGuard& operator=(const FaultPlanGuard&) = delete;
};

/// Fault-free reference report for small_scenarios(): what every
/// fault-riddled run below must still produce, byte for byte.
std::string reference_report()
{
    const TempDir dir;
    (void)run_sweep("sweep-test", small_scenarios(), options_for(dir.path(), 1, 1));
    return read_file(dir.path() + "/report.json");
}

TEST(Sweep, InlineCheckpointWriteFailuresSelfHeal)
{
    const std::string reference = reference_report();
    const std::vector<Scenario> scenarios = small_scenarios();

    const TempDir dir;
    SweepOptions options = options_for(dir.path(), 1, 1);
    options.backoff_base_ms = 0;
    // Two injected checkpoint-write failures at distinct hit ordinals.
    // Hit counters are NOT reset across inline retries, so each rule
    // fires exactly once and the shard's third attempt runs clean.
    const FaultPlanGuard plan(
        "sweep.checkpoint_write:fail@1*9=ENOSPC;sweep.checkpoint_write:fail@5*9");
    const SweepOutcome outcome = run_sweep("sweep-test", scenarios, options);

    EXPECT_EQ(outcome.worker_failures, 2u);
    EXPECT_EQ(outcome.restarts, 2u);
    EXPECT_TRUE(outcome.quarantined.empty());
    EXPECT_EQ(reference, read_file(dir.path() + "/report.json"));
}

TEST(Sweep, SupervisorRestartsCrashedWorkersToByteIdenticalReport)
{
    const std::string reference = reference_report();
    const std::vector<Scenario> scenarios = small_scenarios();

    for (const int threads : {1, 8}) {
        const TempDir dir;
        SweepOptions options = options_for(dir.path(), 2, threads);
        options.workers = 2;
        options.backoff_base_ms = 0;
        options.max_restarts = 4;
        // Every worker crashes at its second scenario on attempts 0-2
        // (two shards x three crashes = six worker deaths), then the
        // attempt-3 workers run clean — strictly more than the three
        // crashes the supervision contract promises to absorb.
        const FaultPlanGuard plan("sweep.scenario:crash@2*3");
        const SweepOutcome outcome = run_sweep("sweep-test", scenarios, options);

        EXPECT_EQ(outcome.worker_failures, 6u) << "threads=" << threads;
        EXPECT_EQ(outcome.restarts, 6u);
        EXPECT_TRUE(outcome.quarantined.empty());
        EXPECT_EQ(reference, read_file(dir.path() + "/report.json"))
            << "threads=" << threads;
    }
}

TEST(Sweep, SupervisorQuarantinesThePoisonScenario)
{
    const std::string reference = reference_report();
    const std::vector<Scenario> scenarios = small_scenarios();

    const TempDir dir;
    SweepOptions options = options_for(dir.path(), 2, 1);
    options.workers = 2;
    options.backoff_base_ms = 0;
    options.max_restarts = 2;
    // Each worker attempt re-runs its shard from scratch, so a crash at
    // the second probed scenario lands on the same scenario every
    // attempt it fires: attempts 0 and 1 both die there, the second
    // consecutive death quarantines it (the heartbeat trail names it),
    // and the attempt-2 worker — outside the *2 window — runs clean.
    const FaultPlanGuard plan("sweep.scenario:crash@2*2");
    const SweepOutcome outcome = run_sweep("sweep-test", scenarios, options);

    // Round-robin over 2 shards: the second scenario probed is global
    // index 2 (shard 0) and 3 (shard 1).
    EXPECT_EQ(outcome.quarantined, (std::vector<std::uint32_t>{2, 3}));
    EXPECT_EQ(outcome.worker_failures, 4u);
    EXPECT_EQ(outcome.restarts, 4u);

    const std::string report = read_file(dir.path() + "/report.json");
    EXPECT_NE(report.find("\"error_kind\": \"worker_crash\""), std::string::npos);
    EXPECT_NE(report.find("scenario quarantined after repeated worker crashes"),
              std::string::npos);
    // Quarantined entries are the only allowed difference: every line
    // not describing scenario 2 or 3 matches the fault-free report.
    std::istringstream got(report);
    std::istringstream want(reference);
    std::string got_line;
    std::string want_line;
    while (std::getline(want, want_line)) {
        ASSERT_TRUE(static_cast<bool>(std::getline(got, got_line)));
        if (want_line.find("\"index\": 2,") != std::string::npos ||
            want_line.find("\"index\": 3,") != std::string::npos) {
            // The fault-free entries for 2 and 3 span multiple lines;
            // skip to the next scenario entry in both streams.
            while (want_line.find("} }") == std::string::npos &&
                   want_line.rfind("\" }") == std::string::npos &&
                   std::getline(want, want_line)) {
            }
            continue;
        }
        if (got_line.find("\"index\": 2,") != std::string::npos ||
            got_line.find("\"index\": 3,") != std::string::npos) {
            continue; // the single-line quarantine record
        }
        EXPECT_EQ(got_line, want_line);
    }

    // A resumed run reuses the quarantine-bearing checkpoints verbatim.
    fault::clear_plan();
    const SweepOutcome again = run_sweep("sweep-test", scenarios, options);
    EXPECT_EQ(again.resumed, 8u);
    EXPECT_EQ(report, read_file(dir.path() + "/report.json"));
}

TEST(Sweep, WatchdogKillsHungWorkerAndRestartHeals)
{
    const std::string reference = reference_report();
    const std::vector<Scenario> scenarios = small_scenarios();

    const TempDir dir;
    SweepOptions options = options_for(dir.path(), 2, 1);
    options.workers = 2;
    options.backoff_base_ms = 0;
    options.hang_timeout_ms = 250;
    // Attempt-0 workers wedge at their second scenario; the shard file
    // stops growing, the watchdog SIGKILLs them, and the attempt-1
    // workers (gated by *1) run clean.
    const FaultPlanGuard plan("sweep.scenario:hang@2*1");
    const SweepOutcome outcome = run_sweep("sweep-test", scenarios, options);

    EXPECT_EQ(outcome.worker_failures, 2u);
    EXPECT_EQ(outcome.restarts, 2u);
    EXPECT_TRUE(outcome.quarantined.empty());
    EXPECT_EQ(reference, read_file(dir.path() + "/report.json"));
}

TEST(Sweep, TrailerTornOffByKillIsRecomputedByteIdentically)
{
    const std::string reference = reference_report();
    const std::vector<Scenario> scenarios = small_scenarios();

    const TempDir dir;
    (void)run_sweep("sweep-test", scenarios, options_for(dir.path(), 2, 1));

    // Strip exactly the 20-byte trailer from a completed shard: the
    // on-disk state of a SIGKILL landing after the last (fsynced)
    // record but before the trailer write.
    const std::string shard1 = dir.path() + "/shard-0001.msr";
    const std::string content = read_file(shard1);
    ASSERT_GT(content.size(), 20u);
    {
        std::ofstream out(shard1, std::ios::binary | std::ios::trunc);
        out << content.substr(0, content.size() - 20);
    }
    std::remove((dir.path() + "/report.json").c_str());

    const SweepOutcome resumed =
        run_sweep("sweep-test", scenarios, options_for(dir.path(), 2, 1));
    EXPECT_EQ(resumed.resumed, 4u); // shard 0 reused
    EXPECT_EQ(resumed.executed, 4u); // trailerless shard 1 recomputed
    EXPECT_EQ(reference, read_file(dir.path() + "/report.json"));
}

TEST(Sweep, ShutdownRequestInterruptsSupervisedRunAndResumeCompletes)
{
    const TempDir dir;
    const std::vector<Scenario> scenarios = small_scenarios();
    SweepOptions options = options_for(dir.path(), 4, 1);
    options.workers = 2;
    options.backoff_base_ms = 0;

    // A shutdown request pending when the supervisor starts: it must
    // bail out before spawning anything, report the interruption, and
    // leave whatever checkpoints exist for a later resume.
    ShutdownLatch::global().reset();
    ShutdownLatch::global().request();
    const SweepOutcome interrupted = run_sweep("sweep-test", scenarios, options);
    ShutdownLatch::global().reset();
    EXPECT_TRUE(interrupted.interrupted);
    EXPECT_FALSE(interrupted.drain_killed);
    EXPECT_EQ(interrupted.executed, 0u);
    EXPECT_TRUE(interrupted.report_path.empty());

    // The rerun completes normally and writes the full report.
    const SweepOutcome resumed = run_sweep("sweep-test", scenarios, options);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.executed + resumed.resumed, 8u);
    EXPECT_EQ(read_file(resumed.report_path),
              read_file(dir.path() + "/report.json"));
}

TEST(Sweep, ForwardedShutdownEndsWedgedWorkersWithoutSigkill)
{
    const TempDir dir;
    const std::vector<Scenario> scenarios = small_scenarios();
    SweepOptions options = options_for(dir.path(), 2, 1);
    options.workers = 2;
    options.backoff_base_ms = 0;
    options.hang_timeout_ms = 0; // the drain, not the watchdog, must end them
    options.drain_timeout_ms = 5000;
    // Both workers wedge at their second scenario (global indices 2 and
    // 3), so only a forwarded SIGTERM can end them before the grace.
    const FaultPlanGuard plan("sweep.scenario:hang@2");

    // The CLI's set-up: SIGTERM/SIGINT routed to the shutdown latch in
    // the supervisor. Workers must not keep that handler, or the
    // forwarded signal would only set a flag nobody in them reads.
    ShutdownLatch& latch = ShutdownLatch::global();
    latch.reset();
    latch.install_handlers();
    std::chrono::steady_clock::time_point requested_at{};
    std::thread requester([&] {
        const auto wedged = [&](int shard, std::uint32_t index) {
            char name[32];
            std::snprintf(name, sizeof name, "/shard-%04d.msr", shard);
            const std::optional<ShardFile> file = read_shard_file(dir.path() + name);
            return file && file->poison_index() == index;
        };
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!(wedged(0, 2) && wedged(1, 3)) && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        requested_at = std::chrono::steady_clock::now();
        latch.request();
    });
    const SweepOutcome outcome = run_sweep("sweep-test", scenarios, options);
    const auto finished_at = std::chrono::steady_clock::now();
    requester.join();
    (void)std::signal(SIGTERM, SIG_DFL);
    (void)std::signal(SIGINT, SIG_DFL);
    latch.reset();

    EXPECT_TRUE(outcome.interrupted);
    EXPECT_FALSE(outcome.drain_killed);
    EXPECT_LT(
        std::chrono::duration_cast<std::chrono::milliseconds>(finished_at - requested_at).count(),
        options.drain_timeout_ms / 5);
}

TEST(Sweep, RejectsUnusableOptions)
{
    const std::vector<Scenario> scenarios = small_scenarios();
    EXPECT_THROW((void)run_sweep("s", {}, options_for("/tmp", 1, 1)), ValidationError);

    SweepOptions no_dir;
    EXPECT_THROW((void)run_sweep("s", scenarios, no_dir), ValidationError);

    SweepOptions bad_shards = options_for("/tmp", 0, 1);
    EXPECT_THROW((void)run_sweep("s", scenarios, bad_shards), ValidationError);
}

} // namespace
} // namespace mst
