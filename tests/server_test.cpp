// Integration tests for the TCP front end (service/server.hpp) and its
// frame splitter: loopback round-trips, ordered-mode byte-identity with
// the stdio replay path, streaming id-correlation, admission control,
// graceful-shutdown drain, and malformed/oversized frame isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.hpp"
#include "common/faultpoint.hpp"
#include "common/net.hpp"
#include "common/signals.hpp"
#include "service/framing.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace mst {
namespace {

/// A tiny two-module SOC as inline request text: optimizes in
/// microseconds, so server tests spend their time on the network
/// machinery instead of the optimizer.
const char* const tiny_soc =
    R"(soc tiny\nmodule a inputs 8 outputs 8 patterns 50 scan 40 40\n)"
    R"(module b inputs 4 outputs 4 patterns 120 scan 64 60 56\nend\n)";

std::string tiny_request(const std::string& id, int channels)
{
    return std::string("{\"id\":\"") + id + "\",\"soc_text\":\"" + tiny_soc +
           "\",\"channels\":" + std::to_string(channels) + ",\"depth\":\"1M\"}";
}

std::string recv_all(const net::Socket& socket)
{
    std::string data;
    char buffer[16 * 1024];
    for (;;) {
        const long n = socket.read_some(buffer, sizeof buffer);
        if (n <= 0) {
            return data;
        }
        data.append(buffer, static_cast<std::size_t>(n));
    }
}

std::vector<std::string> split_lines(const std::string& text)
{
    std::vector<std::string> lines;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos) {
            end = text.size();
        }
        lines.push_back(text.substr(begin, end - begin));
        begin = end + 1;
    }
    return lines;
}

/// Split a received byte stream of length-prefixed frames.
std::vector<std::string> split_length_prefixed(const std::string& data)
{
    std::vector<std::string> frames;
    std::size_t at = 0;
    while (at + 4 <= data.size()) {
        const std::size_t length =
            (static_cast<std::size_t>(static_cast<unsigned char>(data[at])) << 24) |
            (static_cast<std::size_t>(static_cast<unsigned char>(data[at + 1])) << 16) |
            (static_cast<std::size_t>(static_cast<unsigned char>(data[at + 2])) << 8) |
            static_cast<std::size_t>(static_cast<unsigned char>(data[at + 3]));
        EXPECT_LE(at + 4 + length, data.size()) << "truncated length-prefixed frame";
        frames.push_back(data.substr(at + 4, length));
        at += 4 + length;
    }
    EXPECT_EQ(at, data.size()) << "trailing bytes after the last frame";
    return frames;
}

JsonValue response(const std::string& line)
{
    return JsonValue::parse(line);
}

bool wait_until(const std::function<bool()>& predicate, int timeout_ms = 10000)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!predicate()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

/// Occupies every global-executor worker until release(), so admitted
/// requests deterministically stay in flight (the admission and drain
/// tests depend on that, not on timing).
class ExecutorBlocker {
public:
    ExecutorBlocker()
    {
        const int workers = Executor::global().worker_count();
        for (int i = 0; i < workers; ++i) {
            futures_.push_back(Executor::global().submit([this] {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] { return released_; });
            }));
        }
    }

    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (released_) {
                return;
            }
            released_ = true;
        }
        cv_.notify_all();
        for (std::future<void>& future : futures_) {
            future.wait();
        }
    }

    ~ExecutorBlocker() { release(); }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool released_ = false;
    std::vector<std::future<void>> futures_;
};

/// Read one '\n'-terminated response line (recv_all would block until
/// the server closes the connection).
std::string recv_line(const net::Socket& socket)
{
    std::string line;
    char byte = 0;
    while (socket.read_some(&byte, 1) == 1) {
        if (byte == '\n') {
            return line;
        }
        line.push_back(byte);
    }
    return line;
}

/// Installs a fault plan for one test and disarms on destruction.
class FaultPlanGuard {
public:
    explicit FaultPlanGuard(const std::string& plan)
    {
        fault::install_plan(fault::parse_plan(plan));
    }
    ~FaultPlanGuard() { fault::clear_plan(); }
    FaultPlanGuard(const FaultPlanGuard&) = delete;
    FaultPlanGuard& operator=(const FaultPlanGuard&) = delete;
};

// --- FrameReader (transport-independent splitter) ---

TEST(Framing, NdjsonSplitsStripsAndSkipsBlanks)
{
    FrameReader reader(1024);
    const std::string bytes = "{\"a\":1}\r\n\n   \n{\"b\":2}\n{\"partial";
    reader.feed(bytes.data(), bytes.size());
    std::string frame;
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, "{\"a\":1}"); // '\r' stripped
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, "{\"b\":2}"); // blank lines skipped
    EXPECT_EQ(reader.next(frame), FrameReader::Status::need_more);
    EXPECT_TRUE(reader.mid_frame());
    reader.feed("}\n", 2);
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, "{\"partial}");
    EXPECT_FALSE(reader.mid_frame());
}

TEST(Framing, NdjsonOversizedLineResyncsAtNewline)
{
    FrameReader reader(8);
    const std::string bytes = "0123456789abcdef\nok\n";
    reader.feed(bytes.data(), bytes.size());
    std::string frame;
    ASSERT_EQ(reader.next(frame), FrameReader::Status::oversized);
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, "ok"); // the stream recovered at the next newline
}

TEST(Framing, NdjsonOversizedReportsOnceAcrossChunks)
{
    FrameReader reader(4);
    std::string frame;
    reader.feed("xxxxxxxx", 8); // over the cap, newline not yet seen
    ASSERT_EQ(reader.next(frame), FrameReader::Status::oversized);
    reader.feed("yyyy\nok\n", 8); // the rest of the bad line + a good one
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, "ok");
}

TEST(Framing, NdjsonLongLineIsIdenticalAtAnyChunkSize)
{
    std::string big = "{\"soc_text\":\"";
    while (big.size() < 300 * 1024) {
        big += "module m inputs 8 outputs 8 patterns 50 scan 40 40\\n";
    }
    big += "\"}";
    const std::string bytes = big + "\n{\"b\":2}\n";
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096},
                                    std::size_t{65536}}) {
        FrameReader reader(1024 * 1024);
        std::vector<std::string> frames;
        std::string frame = "stale";
        for (std::size_t at = 0; at < bytes.size(); at += chunk) {
            reader.feed(bytes.data() + at, std::min(chunk, bytes.size() - at));
            while (reader.next(frame) == FrameReader::Status::frame) {
                frames.push_back(frame);
            }
        }
        ASSERT_EQ(frames.size(), 2U) << "chunk " << chunk;
        EXPECT_TRUE(frames[0] == big) << "chunk " << chunk;
        EXPECT_EQ(frames[1], "{\"b\":2}") << "chunk " << chunk;
        EXPECT_FALSE(reader.mid_frame());
    }
}

TEST(Framing, NdjsonOversizedLineAfterAPartialScanResyncs)
{
    std::string frame;
    {
        // The cap is crossed before any newline arrives.
        FrameReader reader(100);
        reader.feed(std::string(60, 'x').data(), 60);
        ASSERT_EQ(reader.next(frame), FrameReader::Status::need_more);
        reader.feed(std::string(60, 'x').data(), 60);
        ASSERT_EQ(reader.next(frame), FrameReader::Status::oversized);
        const std::string rest = "xxxx\nok\n";
        reader.feed(rest.data(), rest.size());
        ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
        EXPECT_EQ(frame, "ok");
    }
    {
        // The newline arrives in the same read that crosses the cap.
        FrameReader reader(100);
        reader.feed(std::string(60, 'x').data(), 60);
        ASSERT_EQ(reader.next(frame), FrameReader::Status::need_more);
        const std::string rest = std::string(60, 'x') + "\nok\n";
        reader.feed(rest.data(), rest.size());
        ASSERT_EQ(reader.next(frame), FrameReader::Status::oversized);
        ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
        EXPECT_EQ(frame, "ok");
        EXPECT_EQ(reader.next(frame), FrameReader::Status::need_more);
    }
}

TEST(Framing, HelloSwitchingFramingMidBufferResetsTheScan)
{
    // A 10-byte payload's length prefix ends in 0x0A, a '\n' byte: the
    // switched reader must parse it as a length, not as a line end.
    const std::string payload = "{\"a\":1234}";
    ASSERT_EQ(payload.size(), 10U);
    const std::string framed = encode_frame(protocol::Framing::length_prefix, payload);
    ASSERT_EQ(framed[3], '\n');
    const std::string hello = R"({"op":"hello","framing":"length_prefix"})";

    FrameReader reader(1024);
    std::string frame;
    reader.feed(hello.data(), 12); // part of the hello line: scanned, no '\n'
    ASSERT_EQ(reader.next(frame), FrameReader::Status::need_more);
    const std::string rest = hello.substr(12) + "\n" + framed + framed.substr(0, 6);
    reader.feed(rest.data(), rest.size());
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, hello);

    reader.set_framing(protocol::Framing::length_prefix);
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, payload);
    EXPECT_EQ(reader.next(frame), FrameReader::Status::need_more);
    reader.feed(framed.data() + 6, framed.size() - 6);
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, payload);

    // And back: the ndjson scan starts afresh on the new bytes.
    reader.set_framing(protocol::Framing::ndjson);
    reader.feed("{\"b\":2}\n", 8);
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, "{\"b\":2}");
}

TEST(Framing, LengthPrefixRoundTripsAndSkipsOversized)
{
    FrameReader reader(16);
    reader.set_framing(protocol::Framing::length_prefix);
    const std::string good = encode_frame(protocol::Framing::length_prefix, "{\"a\":1}");
    const std::string big =
        encode_frame(protocol::Framing::length_prefix, std::string(64, 'x'));
    const std::string bytes = big + good;
    reader.feed(bytes.data(), bytes.size());
    std::string frame;
    ASSERT_EQ(reader.next(frame), FrameReader::Status::oversized);
    ASSERT_EQ(reader.next(frame), FrameReader::Status::frame);
    EXPECT_EQ(frame, "{\"a\":1}"); // the declared length skipped the bad payload
    EXPECT_EQ(reader.next(frame), FrameReader::Status::need_more);
}

// --- Loopback server ---

TEST(Server, LoopbackRoundTripAndServerScopeStats)
{
    Server server;
    server.start();
    const net::Socket client = net::connect(server.endpoint());
    const std::string requests = tiny_request("q1", 64) + "\n" +
                                 "{\"id\":\"s1\",\"op\":\"stats\"}\n" +
                                 "{\"id\":\"s2\",\"op\":\"stats\",\"scope\":\"server\"}\n";
    ASSERT_TRUE(client.write_all(requests));
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    ASSERT_EQ(lines.size(), 3U);

    const JsonValue ok = response(lines[0]);
    EXPECT_EQ(ok.find("id")->as_string(), "q1");
    EXPECT_EQ(ok.find("v")->as_int(), 1);
    EXPECT_TRUE(ok.find("ok")->as_bool());
    EXPECT_NE(ok.find("solution"), nullptr);

    // Default scope: no transport-dependent section, byte-compatible
    // with the stdio path. Server scope: the network counters appear.
    const JsonValue service_stats = response(lines[1]);
    EXPECT_EQ(service_stats.find("stats")->find("server"), nullptr);
    const JsonValue server_stats = response(lines[2]);
    const JsonValue* section = server_stats.find("stats")->find("server");
    ASSERT_NE(section, nullptr);
    EXPECT_EQ(section->find("connections_accepted")->as_int(), 1);
    EXPECT_EQ(section->find("connections_active")->as_int(), 1);
    EXPECT_EQ(section->find("requests_admitted")->as_int(), 3);
    EXPECT_EQ(section->find("requests_rejected")->as_int(), 0);
    server.stop();
}

TEST(Server, OrderedModeIsByteIdenticalToStdioReplay)
{
    std::ifstream file(std::string(MST_TEST_DATA_DIR) + "/service_replay_50.jsonl");
    ASSERT_TRUE(file.is_open());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(file, line)) {
        if (line.find_first_not_of(" \t\r") != std::string::npos) {
            lines.push_back(line);
        }
    }
    ASSERT_EQ(lines.size(), 50U);

    for (const int threads : {1, 8}) {
        // The stdio replay path (what `mst replay --threads N` runs).
        ServiceConfig service_config;
        service_config.threads = threads;
        const std::vector<std::string> expected =
            RequestService(service_config).execute(lines);

        // The same stream through a real socket in ordered mode.
        ServerConfig config;
        config.service = service_config;
        Server server(config);
        server.start();
        const net::Socket client = net::connect(server.endpoint());
        std::string payload = "{\"op\":\"hello\",\"stream\":false}\n";
        for (const std::string& request : lines) {
            payload += request;
            payload += '\n';
        }
        ASSERT_TRUE(client.write_all(payload));
        client.shutdown_write();
        std::vector<std::string> received = split_lines(recv_all(client));
        server.stop();

        ASSERT_EQ(received.size(), 51U) << "threads=" << threads;
        EXPECT_TRUE(response(received[0]).find("hello") != nullptr);
        received.erase(received.begin());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(received[i], expected[i])
                << "response " << i << " at threads=" << threads;
        }
    }
}

TEST(Server, StreamingResponsesCorrelateById)
{
    Server server;
    server.start();
    const net::Socket client = net::connect(server.endpoint());
    std::string payload;
    std::set<std::string> ids;
    for (const int channels : {16, 24, 32, 48, 64, 96}) {
        const std::string id = "c" + std::to_string(channels);
        ids.insert(id);
        payload += tiny_request(id, channels);
        payload += '\n';
    }
    ASSERT_TRUE(client.write_all(payload));
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    server.stop();

    // Streaming mode promises one response per request with matching
    // ids, not any particular order.
    ASSERT_EQ(lines.size(), ids.size());
    std::set<std::string> seen;
    for (const std::string& text : lines) {
        const JsonValue reply = response(text);
        EXPECT_TRUE(reply.find("ok")->as_bool()) << text;
        seen.insert(reply.find("id")->as_string());
    }
    EXPECT_EQ(seen, ids);
}

TEST(Server, AdmissionControlRejectsWithTypedErrors)
{
    ServerConfig config;
    config.connection_queue_limit = 2;
    Server server(config);
    server.start();

    ExecutorBlocker blocker; // admitted requests stay in flight
    const net::Socket client = net::connect(server.endpoint());
    std::string payload;
    for (const int channels : {16, 24, 32, 48, 64, 96}) {
        payload += tiny_request("c" + std::to_string(channels), channels);
        payload += '\n';
    }
    ASSERT_TRUE(client.write_all(payload));
    ASSERT_TRUE(wait_until([&] {
        const protocol::ServerCounters counters = server.counters();
        return counters.requests_admitted + counters.requests_rejected >= 6;
    }));
    const protocol::ServerCounters counters = server.counters();
    EXPECT_EQ(counters.requests_admitted, 2U);
    EXPECT_EQ(counters.requests_rejected, 4U);
    EXPECT_EQ(counters.connection_queue_high_water, 2U);

    blocker.release();
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    server.stop();

    ASSERT_EQ(lines.size(), 6U);
    int ok = 0;
    int overloaded = 0;
    for (const std::string& text : lines) {
        const JsonValue reply = response(text);
        if (reply.find("ok")->as_bool()) {
            ++ok;
        } else {
            EXPECT_EQ(reply.find("error")->find("kind")->as_string(), "overloaded") << text;
            ++overloaded;
        }
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(overloaded, 4);
}

TEST(Server, HealthAnswersInlineWhileTheExecutorIsPinned)
{
    ServerConfig config;
    config.global_queue_limit = 4;
    Server server(config);
    server.start();

    // Every executor worker is busy and two optimize requests are in
    // flight: a health probe must still answer immediately because it
    // runs on the connection reader thread, never the optimizer pool.
    ExecutorBlocker blocker;
    const net::Socket busy = net::connect(server.endpoint());
    ASSERT_TRUE(busy.write_all(tiny_request("b1", 16) + "\n" + tiny_request("b2", 24) +
                               "\n"));
    ASSERT_TRUE(wait_until([&] { return server.counters().requests_admitted >= 2; }));

    const net::Socket probe = net::connect(server.endpoint());
    ASSERT_TRUE(probe.write_all(std::string(R"({"id":"h","op":"health"})") + "\n"));
    probe.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(probe));
    ASSERT_EQ(lines.size(), 1U);
    const JsonValue reply = response(lines[0]);
    EXPECT_TRUE(reply.find("ok")->as_bool());
    const JsonValue* health = reply.find("health");
    ASSERT_NE(health, nullptr);
    EXPECT_EQ(health->find("status")->as_string(), "ok");
    EXPECT_EQ(health->find("shm")->as_string(), "off");
    EXPECT_EQ(health->find("inflight")->as_int(), 2);
    EXPECT_EQ(health->find("queue_limit")->as_int(), 4);
    EXPECT_GT(health->find("executor_threads")->as_int(), 0);

    blocker.release();
    busy.shutdown_write();
    EXPECT_EQ(split_lines(recv_all(busy)).size(), 2U);
    server.stop();
}

TEST(Server, GracefulStopDrainsInFlightRequests)
{
    Server server;
    server.start();

    ExecutorBlocker blocker;
    const net::Socket client = net::connect(server.endpoint());
    const std::string payload =
        tiny_request("a", 16) + "\n" + tiny_request("b", 32) + "\n" + tiny_request("c", 64) + "\n";
    ASSERT_TRUE(client.write_all(payload));
    ASSERT_TRUE(wait_until([&] { return server.counters().requests_admitted >= 3; }));

    // Stop while all three are in flight: stop() must block until they
    // complete and their responses are flushed, never drop them.
    std::thread stopper([&] { server.stop(); });
    blocker.release();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    stopper.join();

    ASSERT_EQ(lines.size(), 3U);
    std::set<std::string> seen;
    for (const std::string& text : lines) {
        const JsonValue reply = response(text);
        EXPECT_TRUE(reply.find("ok")->as_bool()) << text;
        seen.insert(reply.find("id")->as_string());
    }
    EXPECT_EQ(seen, (std::set<std::string>{"a", "b", "c"}));
}

TEST(Server, MalformedAndOversizedFramesDoNotKillTheConnection)
{
    ServerConfig config;
    config.max_frame_bytes = 96;
    Server server(config);
    server.start();
    const net::Socket client = net::connect(server.endpoint());
    const std::string payload = "{ not json\n" + std::string(200, 'x') + "\n" +
                                "{\"id\":\"after\",\"op\":\"stats\"}\n";
    ASSERT_TRUE(client.write_all(payload));
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    server.stop();

    ASSERT_EQ(lines.size(), 3U);
    EXPECT_EQ(response(lines[0]).find("error")->find("kind")->as_string(), "parse");
    EXPECT_EQ(response(lines[1]).find("error")->find("kind")->as_string(), "parse");
    const JsonValue after = response(lines[2]);
    EXPECT_TRUE(after.find("ok")->as_bool()) << lines[2];
    EXPECT_EQ(after.find("id")->as_string(), "after");
}

TEST(Server, HelloNegotiatesLengthPrefixFraming)
{
    Server server;
    server.start();
    const net::Socket client = net::connect(server.endpoint());
    // The hello travels in the connection's initial framing (ndjson);
    // everything after it — responses included — uses the negotiated one.
    std::string payload = "{\"id\":\"h\",\"op\":\"hello\",\"framing\":\"length_prefix\","
                          "\"stream\":false}\n";
    payload += encode_frame(protocol::Framing::length_prefix, tiny_request("lp", 64));
    payload += encode_frame(protocol::Framing::length_prefix, "{\"id\":\"s\",\"op\":\"stats\"}");
    ASSERT_TRUE(client.write_all(payload));
    client.shutdown_write();
    const std::vector<std::string> frames = split_length_prefixed(recv_all(client));
    server.stop();

    ASSERT_EQ(frames.size(), 3U);
    const JsonValue hello = response(frames[0]);
    EXPECT_EQ(hello.find("hello")->find("framing")->as_string(), "length_prefix");
    EXPECT_FALSE(hello.find("hello")->find("stream")->as_bool());
    EXPECT_TRUE(response(frames[1]).find("ok")->as_bool()) << frames[1];
    EXPECT_EQ(response(frames[1]).find("id")->as_string(), "lp");
    EXPECT_NE(response(frames[2]).find("stats"), nullptr);
}

TEST(Server, LateHelloIsRejectedWithoutClosing)
{
    Server server;
    server.start();
    const net::Socket client = net::connect(server.endpoint());
    const std::string payload = tiny_request("first", 64) + "\n" +
                                "{\"id\":\"late\",\"op\":\"hello\",\"stream\":false}\n" +
                                "{\"id\":\"s\",\"op\":\"stats\"}\n";
    ASSERT_TRUE(client.write_all(payload));
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    server.stop();

    ASSERT_EQ(lines.size(), 3U);
    std::set<std::string> kinds;
    bool saw_ok = false;
    for (const std::string& text : lines) {
        const JsonValue reply = response(text);
        if (reply.find("ok")->as_bool()) {
            saw_ok = true;
        } else {
            kinds.insert(reply.find("error")->find("kind")->as_string());
        }
    }
    EXPECT_TRUE(saw_ok);
    EXPECT_EQ(kinds, (std::set<std::string>{"validation"}));
}

// --- Fault injection and self-healing (docs/robustness.md) ---

TEST(Server, ExhaustedAcceptShedsIdleConnectionAndRetries)
{
    ServerConfig config;
    config.accept_backoff_ms = 0; // keep the retry instant for the test
    Server server(config);
    server.start();

    // An established, idle connection: one completed request, nothing
    // in flight — the shedding candidate.
    const net::Socket idle = net::connect(server.endpoint());
    ASSERT_TRUE(idle.write_all(tiny_request("idle", 64) + "\n"));
    const std::string first = recv_line(idle);
    EXPECT_TRUE(response(first).find("ok")->as_bool()) << first;
    // A stats request is an in-flight barrier: once answered, the
    // connection is provably idle (inflight == 0) and shed-eligible.
    ASSERT_TRUE(idle.write_all("{\"id\":\"b\",\"op\":\"stats\"}\n"));
    (void)recv_line(idle);

    // The next ready connection trips a simulated EMFILE: the accept
    // loop must shed the idle connection, back off, and then accept the
    // same pending connection on the retry — never die.
    const FaultPlanGuard plan("net.accept:fail@1=EMFILE");
    const net::Socket client = net::connect(server.endpoint());
    ASSERT_TRUE(client.write_all(tiny_request("after-emfile", 48) + "\n"));
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    ASSERT_EQ(lines.size(), 1U);
    EXPECT_TRUE(response(lines[0]).find("ok")->as_bool()) << lines[0];
    EXPECT_EQ(response(lines[0]).find("id")->as_string(), "after-emfile");

    // The shed connection was closed out from under its (idle) peer.
    EXPECT_EQ(recv_all(idle), "");
    const protocol::ServerCounters counters = server.counters();
    EXPECT_EQ(counters.accept_retries, 1U);
    EXPECT_EQ(counters.connections_shed, 1U);
    server.stop();
}

TEST(Server, InjectedWriteFailureDropsOneConnectionNotTheServer)
{
    Server server;
    server.start();

    const net::Socket victim = net::connect(server.endpoint());
    {
        const FaultPlanGuard plan("net.write:fail@1=EPIPE");
        ASSERT_TRUE(victim.write_all(tiny_request("lost", 64) + "\n"));
        victim.shutdown_write();
        // The injected delivery failure closes the victim connection
        // without writing its response.
        EXPECT_EQ(recv_all(victim), "");
    }

    // The server survives: a fresh connection gets a correct response.
    const net::Socket client = net::connect(server.endpoint());
    ASSERT_TRUE(client.write_all(tiny_request("served", 64) + "\n"));
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    server.stop();
    ASSERT_EQ(lines.size(), 1U);
    EXPECT_TRUE(response(lines[0]).find("ok")->as_bool()) << lines[0];
    EXPECT_EQ(response(lines[0]).find("id")->as_string(), "served");
}

TEST(Server, LoadSheddingServesCacheHitsWhileAdmissionRefusesWork)
{
    ServerConfig config;
    config.global_queue_limit = 1;
    Server server(config);
    server.start();
    const net::Socket client = net::connect(server.endpoint());

    // Prime the solution memo with one completed request; the stats
    // barrier guarantees its in-flight slot is released before the
    // saturation phase below counts on a queue of exactly one.
    ASSERT_TRUE(client.write_all(tiny_request("prime", 64) + "\n"));
    const std::string primed = recv_line(client);
    ASSERT_TRUE(response(primed).find("ok")->as_bool()) << primed;
    ASSERT_TRUE(client.write_all("{\"id\":\"b\",\"op\":\"stats\"}\n"));
    (void)recv_line(client);

    // Fill the admission queue with a request that stays in flight,
    // then send a memoized request and an unknown one. The memoized one
    // must be answered from the cache (degradation mode); the unknown
    // one needs real work and is refused.
    ExecutorBlocker blocker;
    const std::string payload = tiny_request("busy", 32) + "\n" +
                                tiny_request("hit", 64) + "\n" +
                                tiny_request("miss", 96) + "\n";
    ASSERT_TRUE(client.write_all(payload));
    ASSERT_TRUE(wait_until([&] {
        const protocol::ServerCounters counters = server.counters();
        return counters.load_shed_cache_hits >= 1 && counters.requests_rejected >= 1;
    }));
    blocker.release();
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    server.stop();

    ASSERT_EQ(lines.size(), 3U);
    bool saw_hit = false;
    bool saw_miss = false;
    bool saw_busy = false;
    for (const std::string& text : lines) {
        const JsonValue reply = response(text);
        const std::string id = reply.find("id")->as_string();
        if (id == "hit") {
            saw_hit = true;
            EXPECT_TRUE(reply.find("ok")->as_bool()) << text;
        } else if (id == "miss") {
            saw_miss = true;
            EXPECT_FALSE(reply.find("ok")->as_bool()) << text;
            EXPECT_EQ(reply.find("error")->find("kind")->as_string(), "overloaded");
        } else if (id == "busy") {
            saw_busy = true;
            EXPECT_TRUE(reply.find("ok")->as_bool()) << text;
        }
    }
    EXPECT_TRUE(saw_hit);
    EXPECT_TRUE(saw_miss);
    EXPECT_TRUE(saw_busy);
    EXPECT_EQ(server.counters().load_shed_cache_hits, 1U);
}

TEST(Server, InjectedFramingFaultDegradesToOneParseError)
{
    Server server;
    server.start();
    const net::Socket client = net::connect(server.endpoint());
    const FaultPlanGuard plan("framing.read:fail@2");
    // Frame 1 decodes normally; frame 2 trips the injected decode
    // failure and degrades to a typed per-request error; frame 3 shows
    // the stream stayed in sync.
    const std::string payload = tiny_request("ok1", 64) + "\n" +
                                tiny_request("faulted", 48) + "\n" +
                                "{\"id\":\"ok2\",\"op\":\"stats\"}\n";
    ASSERT_TRUE(client.write_all(payload));
    client.shutdown_write();
    const std::vector<std::string> lines = split_lines(recv_all(client));
    server.stop();

    ASSERT_EQ(lines.size(), 3U);
    int ok = 0;
    int parse_errors = 0;
    for (const std::string& text : lines) {
        const JsonValue reply = response(text);
        const JsonValue* error = reply.find("error");
        if (error != nullptr) {
            EXPECT_EQ(error->find("kind")->as_string(), "parse") << text;
            EXPECT_NE(error->find("message")->as_string().find("injected framing fault"),
                      std::string::npos)
                << text;
            ++parse_errors;
        } else {
            ++ok;
        }
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(parse_errors, 1);
}

} // namespace
} // namespace mst
