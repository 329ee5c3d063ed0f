// Integration tests for the supervised prefork pool (service/prefork):
// readiness-gated port files, byte-identical replay through the pool,
// worker-death restarts, shm-writer crash recovery, degraded mode, and
// a prompt drain. Expected responses come from the committed golden
// file, never from an in-process RequestService.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "common/net.hpp"
#include "common/signals.hpp"
#include "service/json.hpp"
#include "service/prefork.hpp"
#include "shm/segment.hpp"

namespace mst {
namespace {

struct FaultPlanGuard {
    FaultPlanGuard() { fault::clear_plan(); }
    ~FaultPlanGuard() { fault::clear_plan(); }
};

/// Self-cleaning directory for the pool's port file.
class TempDir {
public:
    TempDir()
    {
        char path[] = "/tmp/mst_prefork_test_XXXXXX";
        if (::mkdtemp(path) == nullptr) {
            throw ValidationError("mkdtemp failed");
        }
        path_ = path;
    }
    ~TempDir()
    {
        std::remove((path_ + "/port").c_str());
        std::remove((path_ + "/port.tmp").c_str());
        ::rmdir(path_.c_str());
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
    [[nodiscard]] std::string port_file() const { return path_ + "/port"; }

private:
    std::string path_;
};

std::string unique_shm_name(const char* suffix)
{
    static int counter = 0;
    return "/mst-prefork-test-" + std::to_string(::getpid()) + "-" +
           std::to_string(++counter) + "-" + suffix;
}

std::vector<std::string> read_jsonl(const std::string& path)
{
    std::ifstream file(path);
    EXPECT_TRUE(file.is_open()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(file, line)) {
        if (line.find_first_not_of(" \t\r") != std::string::npos) {
            lines.push_back(line);
        }
    }
    return lines;
}

/// Stats responses report a worker's local history, so once a chaos
/// test lets a worker die (or splits the stream over reconnects) only
/// the stats-free derived stream is byte-pinned — same rule as the CI
/// chaos step's `grep -v '"op":"stats"'`. Drops request i and golden
/// response i together.
void drop_stats_lines(std::vector<std::string>& requests, std::vector<std::string>& golden)
{
    std::vector<std::string> kept_requests;
    std::vector<std::string> kept_golden;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].find("\"op\":\"stats\"") != std::string::npos) {
            continue;
        }
        kept_requests.push_back(requests[i]);
        kept_golden.push_back(golden[i]);
    }
    requests = std::move(kept_requests);
    golden = std::move(kept_golden);
}

bool wait_until(const std::function<bool()>& predicate, int timeout_ms = 30000)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!predicate()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

/// Poll for the readiness-gated port file and parse the endpoint.
net::Endpoint wait_for_port(const std::string& port_file)
{
    std::string text;
    EXPECT_TRUE(wait_until([&] {
        std::ifstream file(port_file);
        return file.is_open() && static_cast<bool>(std::getline(file, text)) &&
               !text.empty();
    })) << "port file never appeared: "
        << port_file;
    return net::parse_endpoint(text);
}

/// Ordered-mode replay with reconnect-and-resume: send the unanswered
/// suffix on a fresh connection whenever a worker death drops the
/// current one. Only lines terminated by '\n' count as answered, so a
/// response cut mid-byte is re-requested, never half-counted.
std::vector<std::string> replay_resume(const net::Endpoint& endpoint,
                                       const std::vector<std::string>& requests,
                                       int* connections_used = nullptr)
{
    std::vector<std::string> responses;
    int connections = 0;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (responses.size() < requests.size()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            ADD_FAILURE() << "replay did not finish: " << responses.size() << "/"
                          << requests.size();
            break;
        }
        net::Socket client;
        try {
            client = net::connect(endpoint);
        } catch (const Error&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            continue;
        }
        ++connections;
        std::string payload = "{\"op\":\"hello\",\"stream\":false}\n";
        for (std::size_t i = responses.size(); i < requests.size(); ++i) {
            payload += requests[i];
            payload += '\n';
        }
        if (!client.write_all(payload)) {
            continue;
        }
        client.shutdown_write();
        std::string data;
        char buffer[16 * 1024];
        for (;;) {
            const long n = client.read_some(buffer, sizeof buffer);
            if (n <= 0) {
                break;
            }
            data.append(buffer, static_cast<std::size_t>(n));
        }
        // Split complete lines; an unterminated tail is a torn response
        // from a dying worker and is simply resent.
        std::size_t begin = 0;
        bool saw_hello = false;
        for (;;) {
            const std::size_t end = data.find('\n', begin);
            if (end == std::string::npos) {
                break;
            }
            const std::string line = data.substr(begin, end - begin);
            begin = end + 1;
            if (!saw_hello) {
                saw_hello = true; // first line of every connection: hello ack
                EXPECT_NE(line.find("\"hello\""), std::string::npos) << line;
                continue;
            }
            responses.push_back(line);
        }
    }
    if (connections_used != nullptr) {
        *connections_used = connections;
    }
    return responses;
}

/// One out-of-band request (stats/health) on its own connection.
JsonValue ask(const net::Endpoint& endpoint, const std::string& request)
{
    const net::Socket client = net::connect(endpoint);
    EXPECT_TRUE(client.write_all(request + "\n"));
    client.shutdown_write();
    std::string data;
    char buffer[16 * 1024];
    for (;;) {
        const long n = client.read_some(buffer, sizeof buffer);
        if (n <= 0) {
            break;
        }
        data.append(buffer, static_cast<std::size_t>(n));
    }
    const std::size_t end = data.find('\n');
    EXPECT_NE(end, std::string::npos) << "no response to: " << request;
    return JsonValue::parse(data.substr(0, end));
}

/// Everything a pool test needs running in the background.
struct PoolRun {
    explicit PoolRun(PreforkOptions options) : latch(ShutdownLatch::global())
    {
        latch.reset();
        latch.install_handlers(); // workers inherit the graceful handler
        thread = std::thread([this, options] { rc = run_prefork(options, latch); });
    }

    ~PoolRun()
    {
        if (thread.joinable()) {
            latch.request();
            thread.join();
        }
        latch.reset();
    }

    int shutdown()
    {
        latch.request();
        thread.join();
        return rc;
    }

    ShutdownLatch& latch;
    std::thread thread;
    int rc = -1;
};

TEST(Prefork, RejectsBadPoolSizes)
{
    PreforkOptions options;
    options.processes = 0;
    EXPECT_THROW((void)run_prefork(options, ShutdownLatch::global()), ValidationError);
    options.processes = static_cast<int>(shm::Segment::max_workers) + 1;
    EXPECT_THROW((void)run_prefork(options, ShutdownLatch::global()), ValidationError);
}

TEST(Prefork, PoolReplayIsByteIdenticalToGoldenAndReportsPoolStats)
{
    const std::string data_dir = MST_TEST_DATA_DIR;
    const std::vector<std::string> requests = read_jsonl(data_dir +
                                                         "/service_replay_50.jsonl");
    const std::vector<std::string> golden =
        read_jsonl(data_dir + "/service_replay_50.golden.jsonl");
    ASSERT_EQ(requests.size(), 50U);
    ASSERT_EQ(golden.size(), 50U);

    const TempDir dir;
    PreforkOptions options;
    options.processes = 2;
    options.shm_name = unique_shm_name("replay");
    options.port_file = dir.port_file();
    PoolRun run(options);
    const net::Endpoint endpoint = wait_for_port(dir.port_file());

    int connections = 0;
    const std::vector<std::string> responses =
        replay_resume(endpoint, requests, &connections);
    ASSERT_EQ(responses.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(responses[i], golden[i]) << "response " << i;
    }
    EXPECT_EQ(connections, 1); // nothing died: one connection did it all

    // Scope-"server" stats carry the pool + shm sections.
    const JsonValue stats = ask(endpoint, R"({"id":"st","op":"stats","scope":"server"})");
    const JsonValue* server = stats.find("stats")->find("server");
    ASSERT_NE(server, nullptr);
    const JsonValue* pool = server->find("pool");
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->find("workers")->as_int(), 2);
    EXPECT_EQ(pool->find("ready")->as_int(), 2);
    EXPECT_EQ(pool->find("restarts")->as_int(), 0);
    EXPECT_EQ(pool->find("quarantined")->as_int(), 0);
    const JsonValue* shm_section = server->find("shm");
    ASSERT_NE(shm_section, nullptr);
    EXPECT_TRUE(shm_section->find("attached")->as_bool());
    EXPECT_EQ(shm_section->find("recoveries")->as_int(), 0);

    // Health never touches the optimizer pool.
    const JsonValue health = ask(endpoint, R"({"id":"h","op":"health"})");
    EXPECT_TRUE(health.find("ok")->as_bool());
    EXPECT_EQ(health.find("health")->find("status")->as_string(), "ok");
    EXPECT_EQ(health.find("health")->find("shm")->as_string(), "attached");

    EXPECT_EQ(run.shutdown(), 0);
}

TEST(Prefork, DrainAfterOneConnectionIsPromptAndClean)
{
    // One connection wakes the poll() of both workers on the shared
    // listener, but only one wins the accept. The loser must return to
    // its poll loop: blocked in accept it would sleep through SIGTERM
    // until the drain deadline SIGKILLed it (exit code 1, 10 s). The
    // loser only reaches accept when it sees the connection before the
    // winner takes it, so a few pools make a regression near-certain to
    // show; a correct pool passes every round.
    for (int round = 0; round < 4; ++round) {
        const TempDir dir;
        PreforkOptions options;
        options.processes = 2;
        options.port_file = dir.port_file();
        PoolRun run(options);
        const net::Endpoint endpoint = wait_for_port(dir.port_file());

        const JsonValue health = ask(endpoint, R"({"id":"h","op":"health"})");
        EXPECT_TRUE(health.find("ok")->as_bool());

        const auto start = std::chrono::steady_clock::now();
        EXPECT_EQ(run.shutdown(), 0) << "round " << round;
        EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
            << "round " << round;
    }
}

TEST(Prefork, WorkerDeathIsRestartedAndTheReplayResumes)
{
    const std::string data_dir = MST_TEST_DATA_DIR;
    std::vector<std::string> requests = read_jsonl(data_dir + "/service_replay_50.jsonl");
    std::vector<std::string> golden =
        read_jsonl(data_dir + "/service_replay_50.golden.jsonl");
    drop_stats_lines(requests, golden);
    ASSERT_EQ(requests.size(), 48U);

    const TempDir dir;
    PreforkOptions options;
    options.processes = 2;
    options.shm_name = unique_shm_name("killworker");
    options.port_file = dir.port_file();
    options.backoff_ms = 10;
    // The replay client pipelines the whole stats-free stream on one
    // connection; this test is about crash recovery, not load shedding.
    options.server.connection_queue_limit = 64;
    PoolRun run(options);
    const net::Endpoint endpoint = wait_for_port(dir.port_file());

    const std::vector<std::string> head(requests.begin(), requests.begin() + 10);
    const std::vector<std::string> head_responses = replay_resume(endpoint, head);
    ASSERT_EQ(head_responses.size(), 10U);
    for (std::size_t i = 0; i < head_responses.size(); ++i) {
        EXPECT_EQ(head_responses[i], golden[i]) << "response " << i;
    }

    // SIGKILL one worker mid-flight (attach by name: the supervisor's
    // slot table is the source of truth for live pids).
    auto segment = shm::Segment::attach(options.shm_name);
    std::vector<shm::WorkerSlotView> slots = segment->read_slots();
    ASSERT_EQ(slots.size(), 2U);
    ASSERT_EQ(::kill(static_cast<pid_t>(slots[0].pid), SIGKILL), 0);

    // The supervisor reaps and respawns; the pool returns to 2 ready.
    EXPECT_TRUE(wait_until([&] {
        if (segment->pool_meta().restarts < 1) {
            return false;
        }
        std::size_t ready = 0;
        for (const shm::WorkerSlotView& slot : segment->read_slots()) {
            if (slot.state == shm::WorkerState::ready) {
                ++ready;
            }
        }
        return ready == 2;
    })) << "pool never healed after SIGKILL";

    const std::vector<std::string> tail(requests.begin() + 10, requests.end());
    const std::vector<std::string> tail_responses = replay_resume(endpoint, tail);
    ASSERT_EQ(tail_responses.size(), 38U);
    for (std::size_t i = 0; i < tail_responses.size(); ++i) {
        EXPECT_EQ(tail_responses[i], golden[10 + i]) << "response " << (10 + i);
    }

    const JsonValue stats = ask(endpoint, R"({"id":"st","op":"stats","scope":"server"})");
    EXPECT_GE(stats.find("stats")->find("server")->find("pool")->find("restarts")->as_int(),
              1);
    EXPECT_EQ(run.shutdown(), 0);
}

TEST(Prefork, ShmWriterCrashIsRecoveredAndReplayStaysByteIdentical)
{
    const FaultPlanGuard guard;
    const std::string data_dir = MST_TEST_DATA_DIR;
    std::vector<std::string> requests = read_jsonl(data_dir + "/service_replay_50.jsonl");
    std::vector<std::string> golden =
        read_jsonl(data_dir + "/service_replay_50.golden.jsonl");
    drop_stats_lines(requests, golden);

    // Workers inherit the armed plan: each attempt-0 worker dies at its
    // first shm publish — exactly between the arena write and the
    // commit. Respawned workers (attempt >= 1) are clean because the
    // default *R gate limits the rule to attempt 0.
    fault::install_plan(fault::parse_plan("shm.publish:crash"));

    const TempDir dir;
    PreforkOptions options;
    options.processes = 2;
    options.shm_name = unique_shm_name("crashwriter");
    options.port_file = dir.port_file();
    options.backoff_ms = 10;
    options.server.connection_queue_limit = 64; // whole stream pipelined at once
    PoolRun run(options);
    const net::Endpoint endpoint = wait_for_port(dir.port_file());
    fault::clear_plan(); // parent side: only the forked workers stay armed

    int connections = 0;
    const std::vector<std::string> responses =
        replay_resume(endpoint, requests, &connections);
    ASSERT_EQ(responses.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(responses[i], golden[i]) << "response " << i;
    }
    EXPECT_GT(connections, 1); // at least one worker died mid-connection

    // Until the supervisor reaps the crashed writer, its zombie pid
    // still "holds" the writer lock (kill(pid, 0) succeeds on zombies),
    // so recovery is deferred, never lost: wait for the reap+respawn,
    // after which the next recovery attempt steals the dead pid's lock
    // and truncates the torn tail.
    auto segment = shm::Segment::attach(options.shm_name);
    EXPECT_TRUE(wait_until([&] { return segment->pool_meta().restarts >= 1; }))
        << "supervisor never reaped the crashed writer";
    EXPECT_TRUE(wait_until([&] {
        return segment->counters().recoveries >= 1 || segment->recover_if_torn();
    })) << "torn tail never recovered";
    EXPECT_GE(segment->counters().recoveries, 1U);

    const JsonValue stats = ask(endpoint, R"({"id":"st","op":"stats","scope":"server"})");
    const JsonValue* shm_section = stats.find("stats")->find("server")->find("shm");
    ASSERT_NE(shm_section, nullptr);
    EXPECT_GE(shm_section->find("recoveries")->as_int(), 1);

    EXPECT_EQ(run.shutdown(), 0);
}

TEST(Prefork, DegradedSegmentStillServesLocalOnly)
{
    const FaultPlanGuard guard;
    const std::string data_dir = MST_TEST_DATA_DIR;
    const std::vector<std::string> requests = read_jsonl(data_dir +
                                                         "/service_replay_50.jsonl");
    const std::vector<std::string> golden =
        read_jsonl(data_dir + "/service_replay_50.golden.jsonl");

    // The parent's segment creation fails; the pool must come up anyway
    // (readiness falls back to the pipe) and serve from local caches.
    fault::install_plan(fault::parse_plan("shm.map:fail"));

    const TempDir dir;
    PreforkOptions options;
    options.processes = 2;
    options.shm_name = unique_shm_name("degraded");
    options.port_file = dir.port_file();
    PoolRun run(options);
    const net::Endpoint endpoint = wait_for_port(dir.port_file());
    fault::clear_plan();

    const std::vector<std::string> head(requests.begin(), requests.begin() + 5);
    const std::vector<std::string> responses = replay_resume(endpoint, head);
    ASSERT_EQ(responses.size(), 5U);
    for (std::size_t i = 0; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i], golden[i]) << "response " << i;
    }

    const JsonValue health = ask(endpoint, R"({"id":"h","op":"health"})");
    EXPECT_EQ(health.find("health")->find("shm")->as_string(), "off");

    EXPECT_EQ(run.shutdown(), 0);
}

} // namespace
} // namespace mst
