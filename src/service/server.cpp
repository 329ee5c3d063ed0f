#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <system_error>

#include <poll.h>

#include "common/executor.hpp"
#include "common/faultpoint.hpp"
#include "common/supervisor.hpp"
#include "service/framing.hpp"

namespace mst {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

void bump_high_water(std::atomic<std::uint64_t>& high_water, std::uint64_t value)
{
    std::uint64_t current = high_water.load();
    while (value > current && !high_water.compare_exchange_weak(current, value)) {
    }
}

} // namespace

/// Per-connection state shared between the reader thread (frame loop,
/// admission, barriers) and the executor workers that complete its
/// requests.
struct Server::Connection {
    net::Socket socket;

    // Negotiated by a first-frame hello; fixed afterwards.
    protocol::Framing framing = protocol::Framing::ndjson;
    bool stream = true;

    /// Next response sequence number; reader thread only. In ordered
    /// mode, response order == frame order == seq order.
    std::uint64_t next_seq = 0;

    std::mutex mutex; ///< guards the socket writes, pending, write_failed
    std::condition_variable cv;
    std::map<std::uint64_t, std::string> pending; ///< ordered mode: not-yet-due responses
    std::uint64_t next_write = 0;
    bool write_failed = false;

    /// Admitted optimize requests not yet completed (barriers wait on 0).
    std::atomic<std::uint64_t> inflight{0};
    /// Set when the reader thread finished; the accept loop reaps then.
    std::atomic<bool> done{false};
    /// Last time the peer sent bytes (steady-clock ns); the shed policy
    /// picks the least-recently-active idle connection.
    std::atomic<std::int64_t> last_activity_ns{0};
};

Server::Server(ServerConfig config) : config_(config), service_(config.service) {}

Server::~Server()
{
    stop();
}

void Server::start()
{
    start(net::Listener::bind(config_.listen));
}

void Server::start(net::Listener listener)
{
    listener_ = std::move(listener);
    endpoint_ = listener_.local_endpoint();
    started_.store(true);
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::run(ShutdownLatch& latch)
{
    if (!started_.load()) {
        start();
    }
    while (!latch.requested() && !stopping_.load()) {
        pollfd pfd{};
        pfd.fd = latch.poll_fd();
        pfd.events = POLLIN;
        // A negative fd is ignored by poll, leaving the 200ms heartbeat
        // on latch.requested() as the fallback wake-up.
        (void)::poll(&pfd, 1, 200);
    }
    stop();
}

void Server::stop()
{
    if (!started_.load()) {
        return;
    }
    stopping_.store(true);
    listener_.close(); // wakes a blocked accept
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (ConnectionThread& entry : connections_) {
        if (entry.thread.joinable()) {
            entry.thread.join(); // reader drains in-flight work, then exits
        }
    }
    connections_.clear();
}

protocol::ServerCounters Server::counters() const
{
    protocol::ServerCounters counters;
    counters.connections_accepted = connections_accepted_.load();
    counters.connections_active = connections_active_.load();
    counters.requests_admitted = requests_admitted_.load();
    counters.requests_rejected = requests_rejected_.load();
    counters.global_queue_high_water = global_queue_high_water_.load();
    counters.connection_queue_high_water = connection_queue_high_water_.load();
    counters.accept_retries = accept_retries_.load();
    counters.connections_shed = connections_shed_.load();
    counters.load_shed_cache_hits = load_shed_cache_hits_.load();
    service_.fill_shm_section(counters);
    if (config_.pool_stats) {
        config_.pool_stats(counters);
    }
    return counters;
}

bool Server::shed_oldest_idle()
{
    std::shared_ptr<Connection> victim;
    std::int64_t oldest = 0;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (const ConnectionThread& entry : connections_) {
            const std::shared_ptr<Connection>& conn = entry.conn;
            if (conn->done.load() || conn->inflight.load() != 0) {
                continue; // gone already, or mid-request: not sheddable
            }
            const std::int64_t activity = conn->last_activity_ns.load();
            if (victim == nullptr || activity < oldest) {
                victim = conn;
                oldest = activity;
            }
        }
    }
    if (victim == nullptr) {
        return false;
    }
    // Shutdown (not close): the reader thread owns the fd and is woken
    // by the EOF to run its normal drain/close/reap path.
    victim->socket.shutdown_both();
    ++connections_shed_;
    return true;
}

void Server::reap_finished_locked()
{
    for (std::size_t i = 0; i < connections_.size();) {
        if (connections_[i].conn->done.load() && connections_[i].thread.joinable()) {
            connections_[i].thread.join();
            connections_[i] = std::move(connections_.back());
            connections_.pop_back();
        } else {
            ++i;
        }
    }
}

void Server::accept_loop()
{
    int consecutive_exhausted = 0;
    while (!stopping_.load()) {
        net::AcceptResult accepted = listener_.accept(200);
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            reap_finished_locked();
        }
        if (stopping_.load()) {
            continue;
        }
        switch (accepted.status) {
        case net::AcceptResult::Status::timeout:
        case net::AcceptResult::Status::closed:
            continue;
        case net::AcceptResult::Status::transient:
            // Peer vanished mid-handshake (ECONNABORTED and friends):
            // a non-event, try again immediately.
            continue;
        case net::AcceptResult::Status::exhausted: {
            // Out of fds/buffers: recover instead of dying. Shed the
            // least-recently-active idle connection to free a descriptor,
            // then back off — capped exponential, derived from the
            // consecutive-failure count so the schedule is deterministic.
            ++accept_retries_;
            (void)shed_oldest_idle();
            long long remaining_ms =
                supervisor::capped_backoff(config_.accept_backoff_ms,
                                           config_.accept_backoff_cap_ms, consecutive_exhausted)
                    .count();
            // Sliced, stop-aware sleep: shutdown must never wait out a
            // long backoff.
            while (remaining_ms > 0 && !stopping_.load()) {
                const long long slice = remaining_ms < 20 ? remaining_ms : 20;
                std::this_thread::sleep_for(std::chrono::milliseconds(slice));
                remaining_ms -= slice;
            }
            ++consecutive_exhausted;
            continue;
        }
        case net::AcceptResult::Status::accepted:
            break;
        }
        consecutive_exhausted = 0;
        net::Socket socket = std::move(accepted.socket);
        if (connections_active_.load() >= static_cast<std::uint64_t>(config_.max_connections)) {
            // Typed refusal, then close: the client learns why instead of
            // hanging in a kernel backlog.
            socket.set_write_timeout(config_.write_timeout_ms);
            (void)socket.write_all(encode_frame(
                protocol::Framing::ndjson,
                protocol::error_response(
                    "", protocol::ErrorKind::overloaded, "connection limit reached",
                    "max_connections=" + std::to_string(config_.max_connections))));
            continue;
        }
        ++connections_accepted_;
        ++connections_active_;
        auto conn = std::make_shared<Connection>();
        conn->socket = std::move(socket);
        conn->last_activity_ns.store(now_ns());
        std::lock_guard<std::mutex> lock(connections_mutex_);
        connections_.push_back(
            {std::thread([this, conn] { connection_main(conn); }), conn});
    }
}

void Server::connection_main(std::shared_ptr<Connection> conn)
{
    handle_connection(conn);
    --connections_active_;
    conn->done.store(true); // last touch: the accept loop may reap now
}

void Server::handle_connection(const std::shared_ptr<Connection>& conn)
{
    conn->socket.set_write_timeout(config_.write_timeout_ms);
    FrameReader reader(config_.max_frame_bytes);
    bool first_frame = true;
    bool alive = true;
    char buffer[16 * 1024];
    Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(config_.idle_timeout_ms);

    while (alive && !stopping_.load()) {
        // Short poll slices so shutdown requests are noticed promptly.
        if (!conn->socket.wait_readable(200)) {
            if (Clock::now() >= deadline) {
                break; // idle (or mid-frame read) timeout
            }
            continue;
        }
        const long n = conn->socket.read_some(buffer, sizeof buffer);
        if (n <= 0) {
            break; // EOF (every buffered frame was already answered) or error
        }
        conn->last_activity_ns.store(now_ns());
        reader.feed(buffer, static_cast<std::size_t>(n));
        alive = process_buffered(conn, reader, first_frame);
        deadline = Clock::now() + std::chrono::milliseconds(reader.mid_frame()
                                                               ? config_.read_timeout_ms
                                                               : config_.idle_timeout_ms);
    }

    // Drain: every admitted request completes and (ordered mode) flushes
    // in sequence before the socket closes — shutdown refuses work, it
    // never swallows responses.
    {
        std::unique_lock<std::mutex> lock(conn->mutex);
        conn->cv.wait(lock, [&] { return conn->inflight.load() == 0; });
    }
    conn->socket.close();
}

bool Server::process_buffered(const std::shared_ptr<Connection>& conn, FrameReader& reader,
                              bool& first_frame)
{
    std::string frame;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(conn->mutex);
            if (conn->write_failed) {
                return false; // peer stopped reading; stop parsing for it
            }
        }
        const FrameReader::Status status = reader.next(frame);
        if (status == FrameReader::Status::need_more) {
            return true;
        }
        const std::uint64_t seq = conn->next_seq++;
        if (status == FrameReader::Status::oversized) {
            ++requests_admitted_;
            if (!deliver(*conn, seq,
                         protocol::error_response("", protocol::ErrorKind::parse, frame))) {
                return false;
            }
            continue;
        }

        protocol::Request request = protocol::parse_request(frame);
        const bool was_first = first_frame;
        first_frame = false;

        if (request.error.kind == protocol::ErrorKind::none &&
            request.op == protocol::Request::Op::hello && was_first) {
            // Negotiate, answer in the *new* framing, and re-key the
            // splitter (safe mid-buffer: the switch is at a frame
            // boundary even if later frames are already buffered).
            if (request.has_framing) {
                conn->framing = request.framing;
            }
            if (request.has_stream) {
                conn->stream = request.stream;
            }
            reader.set_framing(conn->framing);
            ++requests_admitted_;
            if (!deliver(*conn, seq,
                         protocol::hello_response(request.id_json, conn->framing,
                                                  conn->stream))) {
                return false;
            }
            continue;
        }

        if (request.error.kind == protocol::ErrorKind::none &&
            request.op == protocol::Request::Op::stats) {
            // Barrier: every preceding admitted request completes first,
            // so the numbers are deterministic for an ordered replay.
            {
                std::unique_lock<std::mutex> lock(conn->mutex);
                conn->cv.wait(lock, [&] { return conn->inflight.load() == 0; });
            }
            ++requests_admitted_;
            const protocol::ServerCounters snapshot = counters();
            if (!deliver(*conn, seq, service_.stats_response(request, &snapshot))) {
                return false;
            }
            continue;
        }

        if (request.error.kind == protocol::ErrorKind::none &&
            request.op == protocol::Request::Op::health) {
            // Liveness/readiness probe: answered inline on the reader
            // thread without touching the optimizer pool, so a saturated
            // worker still responds to its supervisor.
            ++requests_admitted_;
            protocol::HealthInfo health = service_.health_info();
            health.inflight = global_inflight_.load();
            health.queue_limit = static_cast<std::uint64_t>(config_.global_queue_limit);
            if (!deliver(*conn, seq, protocol::health_response(request.id_json, health))) {
                return false;
            }
            continue;
        }

        if (request.error.kind != protocol::ErrorKind::none ||
            request.op != protocol::Request::Op::optimize) {
            // Interpretation failures and out-of-place hellos are cheap:
            // answer inline on the reader thread.
            ++requests_admitted_;
            if (!deliver(*conn, seq, service_.run_request(request))) {
                return false;
            }
            continue;
        }

        if (stopping_.load()) {
            ++requests_rejected_;
            if (!deliver(*conn, seq,
                         protocol::error_response(request.id_json,
                                                  protocol::ErrorKind::overloaded,
                                                  "server is shutting down"))) {
                return false;
            }
            continue;
        }

        // Admission control: refuse over-limit work with a typed error
        // now instead of stalling the socket behind an unbounded queue.
        const std::uint64_t global_inflight = ++global_inflight_;
        const std::uint64_t conn_inflight = ++conn->inflight;
        if (global_inflight > static_cast<std::uint64_t>(config_.global_queue_limit) ||
            conn_inflight > static_cast<std::uint64_t>(config_.connection_queue_limit)) {
            --global_inflight_;
            --conn->inflight;
            // Load-shedding degradation mode: a saturated queue refuses
            // new optimize work, but a request whose outcome already
            // sits in the solution memo is answered anyway — cache hits
            // cost no executor time, so overload never blinds clients to
            // results the server already has.
            if (std::optional<std::string> cached = service_.cached_response(request)) {
                ++requests_admitted_;
                ++load_shed_cache_hits_;
                if (!deliver(*conn, seq, *cached)) {
                    return false;
                }
                continue;
            }
            ++requests_rejected_;
            const bool global = global_inflight >
                                static_cast<std::uint64_t>(config_.global_queue_limit);
            if (!deliver(*conn, seq,
                         protocol::error_response(
                             request.id_json, protocol::ErrorKind::overloaded,
                             global ? "server request queue is full"
                                    : "connection request queue is full",
                             global ? "global_queue_limit=" +
                                          std::to_string(config_.global_queue_limit)
                                    : "connection_queue_limit=" +
                                          std::to_string(config_.connection_queue_limit)))) {
                return false;
            }
            continue;
        }
        ++requests_admitted_;
        bump_high_water(global_queue_high_water_, global_inflight);
        bump_high_water(connection_queue_high_water_, conn_inflight);

        Executor::global().submit(
            [this, conn, seq, request = std::move(request)]() mutable {
                // deliver() failure just marks the connection dead; the
                // request still completes and is counted.
                (void)deliver(*conn, seq, service_.run_request(request));
                finish_request(conn);
            });
    }
}

bool Server::deliver(Connection& conn, std::uint64_t seq, const std::string& payload)
{
    std::lock_guard<std::mutex> lock(conn.mutex);
    if (conn.write_failed) {
        return false;
    }
    // Injected send failure: exercises the same path as a vanished peer
    // (drop this connection, never the server).
    if (MST_FAULTPOINT("net.write") != std::errc{}) {
        conn.write_failed = true;
        return false;
    }
    if (conn.stream) {
        if (!conn.socket.write_all(encode_frame(conn.framing, payload))) {
            conn.write_failed = true;
            return false;
        }
        return true;
    }
    conn.pending.emplace(seq, payload);
    // Release the contiguous run that is now due, in request order.
    for (auto it = conn.pending.find(conn.next_write); it != conn.pending.end();
         it = conn.pending.find(conn.next_write)) {
        if (!conn.socket.write_all(encode_frame(conn.framing, it->second))) {
            conn.write_failed = true;
            return false;
        }
        conn.pending.erase(it);
        ++conn.next_write;
    }
    return true;
}

void Server::finish_request(const std::shared_ptr<Connection>& conn)
{
    --global_inflight_;
    --conn->inflight;
    {
        // Empty critical section: pairs the decrement with the waiter's
        // predicate check so the notify cannot slip between them.
        std::lock_guard<std::mutex> lock(conn->mutex);
    }
    conn->cv.notify_all();
}

} // namespace mst
