// serve-mix: a closed-loop client against a running `mst serve --listen`.
//
// One connection per lane, each with one request in flight: the real
// callers (planning scripts, sweep scripts) wait for every answer. Every
// cycle asks about new keys over the same SOC population, so each cycle
// mixes memo hits with misses that compute and publish, and what the
// LRUs evict is what the shm tier serves.
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include <unistd.h>

#include "common/net.hpp"
#include "inputs.hpp"
#include "service/framing.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "shm/store.hpp"
#include "soc/parser.hpp"
#include "soc/profiles.hpp"
#include "solve.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t max_frame_bytes = std::size_t{1} << 20;
/// Drain seconds of one cycle on the reference host (see run_cycles).
constexpr double serve_cycle_seconds = 1.0;
/// Shared-memory arena of the layer probes (pages are touched only as
/// entries are written).
constexpr std::size_t probe_shm_bytes = std::size_t{256} << 20;

/// Newline-terminated response lines from one connection.
class LineReader {
public:
    explicit LineReader(const mst::net::Socket& socket) : socket_(socket) {}

    /// The next line without its '\n'; false at EOF or on an error.
    bool next(std::string& line)
    {
        for (;;) {
            const std::size_t newline = buffer_.find('\n', scanned_);
            if (newline != std::string::npos) {
                line.assign(buffer_, 0, newline);
                buffer_.erase(0, newline + 1);
                scanned_ = 0;
                return true;
            }
            scanned_ = buffer_.size();
            char chunk[1 << 16];
            const long got = socket_.read_some(chunk, sizeof chunk);
            if (got <= 0) {
                return false;
            }
            buffer_.append(chunk, static_cast<std::size_t>(got));
        }
    }

private:
    const mst::net::Socket& socket_;
    std::string buffer_;
    std::size_t scanned_ = 0;
};

struct Connection {
    explicit Connection(mst::net::Socket connected) : socket(std::move(connected)) {}
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    mst::net::Socket socket;
    LineReader reader{socket};

    /// Send one line and wait for its answer.
    bool exchange(const std::string& line, std::string& response)
    {
        return socket.write_all(line + '\n') && reader.next(response);
    }
};

/// A response without its id member, so answers to different ids of the
/// same request compare byte for byte.
std::string_view strip_id(std::string_view response)
{
    constexpr std::string_view head = "{\"id\":";
    if (response.substr(0, head.size()) != head) {
        return response;
    }
    const std::size_t comma = response.find(',', head.size());
    return comma == std::string_view::npos ? response : response.substr(comma + 1);
}

/// The error kind of a response, "" for a success.
std::string error_kind(std::string_view response)
{
    constexpr std::string_view marker = "\"error\":{\"kind\":\"";
    const std::size_t at = response.find(marker);
    if (at == std::string_view::npos) {
        return "";
    }
    const std::size_t begin = at + marker.size();
    return std::string(response.substr(begin, response.find('"', begin) - begin));
}

struct Exchange {
    bool answered = false;
    double latency_s = 0;
    std::uint64_t hash = 0; ///< of the response without its id
    std::string kind;       ///< error kind, "" for ok
};

/// Run every request of the cycle over the connections; returns the wall
/// time from the first send to the last answer.
double drain(std::vector<std::unique_ptr<Connection>>& connections, const ServeCycle& cycle,
             std::uint64_t id_base, std::vector<Exchange>& exchanges,
             std::vector<SpanBuffer>& spans)
{
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    std::vector<std::thread> lanes;
    for (std::size_t lane = 0; lane < connections.size(); ++lane) {
        lanes.emplace_back([&, lane] {
            Connection& connection = *connections[lane];
            std::string response;
            for (std::size_t i = next++; i < cycle.requests.size(); i = next++) {
                const std::string line = cycle.line(i, id_base + i);
                ScopedSpan span(spans[lane], "net.request", id_base + i);
                const auto sent = Clock::now();
                if (!connection.exchange(line, response)) {
                    return; // the lane's remaining requests stay unanswered
                }
                Exchange& exchange = exchanges[i];
                exchange.latency_s = seconds_between(sent, Clock::now());
                exchange.answered = true;
                exchange.hash = fnv1a(strip_id(response));
                exchange.kind = error_kind(response);
            }
        });
    }
    for (std::thread& lane : lanes) {
        lane.join();
    }
    return seconds_between(start, Clock::now());
}

/// Resolve and fingerprint the request's SOC the way RequestService does
/// first for every optimize request, under soc.resolve (with soc.parse
/// for inline text) and soc.fingerprint spans.
void trace_resolution(SpanBuffer& spans, std::uint64_t op, int parent,
                      const mst::protocol::Request& request)
{
    try {
        std::optional<mst::Soc> soc;
        {
            ScopedSpan resolve(spans, "soc.resolve", op, parent);
            if (request.inline_soc) {
                ScopedSpan parse(spans, "soc.parse", op, resolve.index());
                soc.emplace(mst::parse_soc_string(request.soc_text, "<request>"));
            } else {
                soc.emplace(mst::load_soc_spec(request.soc_spec));
            }
        }
        ScopedSpan fingerprint(spans, "soc.fingerprint", op, parent);
        (void)mst::fingerprint_hex(mst::soc_fingerprint(*soc));
    } catch (const std::exception&) {
        // A bad SOC is the service's to report; nothing to time here.
    }
}

/// The reference: the same lines through an in-process RequestService
/// (framing, protocol parse, service), on as many lanes as the client.
std::vector<std::uint64_t> replay(mst::RequestService& service, const ServeCycle& cycle,
                                  std::uint64_t id_base, std::vector<SpanBuffer>& spans)
{
    std::vector<std::uint64_t> hashes(cycle.requests.size(), 0);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> lanes;
    for (std::size_t lane = 0; lane < spans.size(); ++lane) {
        lanes.emplace_back([&, lane] {
            SpanBuffer& buffer = spans[lane];
            mst::FrameReader reader(max_frame_bytes);
            std::string frame;
            for (std::size_t i = next++; i < cycle.requests.size(); i = next++) {
                const std::uint64_t op = id_base + i;
                const std::string line = cycle.line(i, op) + '\n';
                ScopedSpan root(buffer, "request", op);
                mst::FrameReader::Status status;
                {
                    ScopedSpan span(buffer, "frame", op, root.index());
                    reader.feed(line.data(), line.size());
                    status = reader.next(frame);
                }
                if (status != mst::FrameReader::Status::frame) {
                    continue; // hash stays 0: a mismatch
                }
                mst::protocol::Request request;
                {
                    ScopedSpan span(buffer, "proto.parse", op, root.index());
                    request = mst::protocol::parse_request(frame);
                }
                if (buffer.enabled() && request.error.kind == mst::protocol::ErrorKind::none &&
                    request.op == mst::protocol::Request::Op::optimize) {
                    trace_resolution(buffer, op, root.index(), request);
                }
                std::string response;
                {
                    ScopedSpan span(buffer, "service.run", op, root.index());
                    response = service.run_request(request);
                }
                hashes[i] = fnv1a(strip_id(response));
            }
        });
    }
    for (std::thread& lane : lanes) {
        lane.join();
    }
    return hashes;
}

/// Per-layer probes over the last cycle's distinct keys: the table build
/// and Step 1/Step 2/serialization a miss pays, and the shm tier's
/// publish and load of both entry kinds, on a private segment.
void probe_layers(const ServeCycle& cycle, const RunConfig& config, SpanBuffer& spans,
                  SolveCounters& counters, Result& result)
{
    const std::string name = "/mst-perfbench-probe-" + std::to_string(::getpid());
    const std::shared_ptr<mst::shm::ShmStore> store =
        mst::shm::ShmStore::open(name, probe_shm_bytes);
    if (!store->attached()) {
        result.notes.push_back("shm probe segment unavailable; shm timings are 0");
    }
    std::map<int, std::set<int>> combos_by_soc;
    for (const ServeCycle::Request& request : cycle.requests) {
        if (request.key >= 0) {
            const int combos = static_cast<int>(cycle.combo_count());
            combos_by_soc[request.key / combos].insert(request.key % combos);
        }
    }
    std::uint64_t op = 0;
    for (const auto& [soc_index, combos] : combos_by_soc) {
        const int first_key = soc_index * static_cast<int>(cycle.combo_count()) + *combos.begin();
        const mst::protocol::Request first =
            mst::protocol::parse_request(cycle.key_line(first_key, 0));
        const mst::Soc soc = first.inline_soc
                                 ? mst::parse_soc_string(first.soc_text, "<request>")
                                 : mst::load_soc_spec(first.soc_spec);
        const std::uint64_t fingerprint = mst::soc_fingerprint(soc);
        const std::string fingerprint_text = mst::fingerprint_hex(fingerprint);
        std::optional<mst::SocTimeTables> tables;
        {
            ScopedSpan span(spans, "tables.build", op);
            tables.emplace(soc, mst::TableBuild::fast, config.threads);
        }
        count_tables(*tables, counters);
        if (store->attached()) {
            {
                ScopedSpan span(spans, "shm.publish", op);
                store->publish_tables(fingerprint, *tables);
            }
            ScopedSpan span(spans, "shm.load_tables", op);
            if (store->load_tables(fingerprint, soc) == nullptr) {
                result.notes.push_back("shm probe: tables of " + soc.name() + " not restored");
            }
        }
        for (const int combo : combos) {
            const int key = soc_index * static_cast<int>(cycle.combo_count()) + combo;
            const mst::protocol::Request request =
                mst::protocol::parse_request(cycle.key_line(key, op));
            mst::OptimizeOptions options = request.options;
            options.threads = config.threads;
            mst::SolutionOutcome outcome;
            {
                ScopedSpan root(spans, "probe", op);
                outcome.solution_json = solve_on_tables(spans, op, root.index(), *tables,
                                                        request.cell, options, counters);
            }
            probe_packing(spans, op, *tables, request.cell, options, counters);
            if (store->attached()) {
                outcome.ok = true;
                outcome.fingerprint = fingerprint_text;
                const std::string memo_key = fingerprint_text + '|' +
                                             mst::protocol::cell_to_json(request.cell) + '|' +
                                             mst::protocol::options_to_json(request.options);
                {
                    ScopedSpan span(spans, "shm.publish", op);
                    store->publish_outcome(memo_key, outcome);
                }
                ScopedSpan span(spans, "shm.load_outcome", op);
                if (store->load_outcome(memo_key) == nullptr) {
                    result.notes.push_back("shm probe: an outcome was not restored");
                }
            }
            ++op;
        }
    }
    if (store->attached() && store->segment()->created()) {
        store->segment()->unlink();
    }
}

/// Server-side counters from a scope-"server" stats request.
void add_server_counters(Result& result, Connection& connection)
{
    std::string response;
    if (!connection.exchange("{\"id\":\"stats\",\"op\":\"stats\",\"scope\":\"server\"}",
                             response)) {
        result.fail("serve-mix: no stats response");
        return;
    }
    const mst::JsonValue root = mst::JsonValue::parse(response);
    const mst::JsonValue* stats = root.find("stats");
    const auto count = [&](std::initializer_list<const char*> path) {
        const mst::JsonValue* node = stats;
        for (const char* key : path) {
            node = node == nullptr ? nullptr : node->find(key);
        }
        return node != nullptr && node->is_number() ? node->as_number() : 0.0;
    };
    const auto hit_ratio = [&](const char* section, const char* sub = nullptr) {
        const double hits = sub ? count({"server", section, "hits"}) : count({section, "hits"});
        const double misses =
            sub ? count({"server", section, "misses"}) : count({section, "misses"});
        return hits + misses == 0 ? 0.0 : hits / (hits + misses);
    };
    result.add("memo.hit_ratio", hit_ratio("solution_memo"), "ratio");
    result.add("memo.evictions", count({"solution_memo", "evictions"}), "count");
    result.add("tables_cache.hit_ratio", hit_ratio("tables_cache"), "ratio");
    result.add("tables_cache.evictions", count({"tables_cache", "evictions"}), "count");
    result.add("shm.hit_ratio", hit_ratio("shm", "server"), "ratio");
    result.add("shm.publishes", count({"server", "shm", "publishes"}), "count");
    result.add("shm.fallbacks", count({"server", "shm", "fallbacks"}), "count");
    result.add("server.rejected", count({"server", "requests_rejected"}), "count");
    result.add("server.queue_high_water", count({"server", "global_queue_high_water"}), "count");
    result.notes.push_back(
        "server shm arena: " +
        std::to_string(static_cast<long long>(count({"server", "shm", "committed_bytes"}))) +
        " of " + std::to_string(static_cast<long long>(count({"server", "shm", "arena_bytes"}))) +
        " bytes committed");
}

/// Median round trip of a health request, answered on the server's
/// reader thread: transport plus framing, no optimizer work.
double health_rtt_us(Connection& connection)
{
    std::vector<double> samples;
    std::string response;
    for (int i = 0; i < 200; ++i) {
        const auto sent = Clock::now();
        if (!connection.exchange("{\"id\":\"health\",\"op\":\"health\"}", response)) {
            break;
        }
        samples.push_back(seconds_between(sent, Clock::now()) * 1e6);
    }
    return percentile(samples, 0.5);
}

} // namespace

Result run_serve_mix(const RunConfig& config)
{
    Result result;
    const mst::net::Endpoint endpoint = mst::net::parse_endpoint(config.server);
    const auto lanes = static_cast<std::size_t>(config.threads);
    std::vector<std::unique_ptr<Connection>> connections;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        connections.push_back(std::make_unique<Connection>(mst::net::connect(endpoint)));
    }
    mst::ServiceConfig service_config;
    service_config.threads = config.threads;
    mst::RequestService reference(service_config);

    std::vector<SpanBuffer> client_off(lanes, SpanBuffer(false));
    std::vector<SpanBuffer> replay_off(lanes, SpanBuffer(false));
    std::vector<SpanBuffer> client_on(lanes, SpanBuffer(true));
    std::vector<SpanBuffer> replay_on(lanes, SpanBuffer(true));

    std::uint64_t next_id = 1;
    Digest digest;
    std::optional<ServeCycle> last;
    const auto run_cycle = [&](int cycle, bool traced, std::vector<double>& latencies) {
        ServeCycle inputs = serve_cycle(config.seed, cycle);
        const std::uint64_t id_base = next_id;
        next_id += inputs.requests.size();
        std::vector<Exchange> exchanges(inputs.requests.size());
        const double busy =
            drain(connections, inputs, id_base, exchanges, traced ? client_on : client_off);
        result.attempted += inputs.requests.size();

        // Reference answers, outside the timed drain.
        const std::vector<std::uint64_t> expected =
            replay(reference, inputs, id_base, traced ? replay_on : replay_off);
        for (std::size_t i = 0; i < exchanges.size(); ++i) {
            const Exchange& exchange = exchanges[i];
            const std::string want = expected_error_kind(inputs.requests[i].bad);
            const std::string where = "serve-mix request " + std::to_string(id_base + i);
            if (!exchange.answered) {
                result.fail(where + ": no answer");
                continue;
            }
            latencies.push_back(exchange.latency_s);
            if (exchange.hash != expected[i]) {
                result.fail(where + ": response differs from the in-process service");
            } else if (exchange.kind != want) {
                result.fail(where + ": error kind '" + exchange.kind + "', expected '" + want +
                            "'");
            }
            if (cycle == 0) {
                digest.add(std::to_string(exchange.hash));
            }
        }
        last = std::move(inputs);
        return busy;
    };
    const std::vector<CycleTiming> cycles = run_cycles(config, serve_cycle_seconds, run_cycle);
    result.notes.push_back("digest serve-mix seed " + std::to_string(config.seed) + ": " +
                           digest.hex());

    if (!config.trace) {
        add_cycle_metrics(result, cycles);
        return result;
    }
    add_server_counters(result, *connections.front());
    result.add("net.health_rtt_us", health_rtt_us(*connections.front()), "us");

    SpanBuffer probe_spans(true);
    SolveCounters counters;
    probe_layers(*last, config, probe_spans, counters, result);

    std::vector<const SpanBuffer*> spans;
    for (const std::vector<SpanBuffer>* group : {&client_on, &replay_on}) {
        for (const SpanBuffer& buffer : *group) {
            spans.push_back(&buffer);
        }
    }
    spans.push_back(&probe_spans);
    const std::map<std::string, LayerTime> layers = layer_times(spans);
    add_solve_layers(result, layers, counters);
    result.add("soc.resolve_us", mean_time(layers, "soc.resolve", 1e6, false), "us");
    result.add("soc.fingerprint_us", mean_time(layers, "soc.fingerprint", 1e6), "us");
    result.add("frame.us", mean_time(layers, "frame", 1e6), "us");
    result.add("proto.parse_us", mean_time(layers, "proto.parse", 1e6), "us");
    result.add("service.run_ms", mean_time(layers, "service.run", 1e3), "ms");
    result.add("shm.load_tables_ms", mean_time(layers, "shm.load_tables", 1e3), "ms");
    result.add("shm.load_outcome_us", mean_time(layers, "shm.load_outcome", 1e6), "us");
    result.add("shm.publish_us", mean_time(layers, "shm.publish", 1e6), "us");
    result.add("trace.overhead_ms",
               cycle_p50_ms(cycles, true) - cycle_p50_ms(cycles, false), "ms");
    for (std::string& line : layer_shares(spans)) {
        result.notes.push_back(std::move(line));
    }
    if (!config.trace_out.empty() && !write_spans(config.trace_out, spans)) {
        result.notes.push_back("could not write spans to " + config.trace_out);
    }
    return result;
}

} // namespace perfbench
