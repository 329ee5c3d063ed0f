#include "service/prefork.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/supervisor.hpp"
#include "shm/segment.hpp"
#include "shm/store.hpp"

namespace mst {

namespace {

using supervisor::Clock;

const char* state_name(shm::WorkerState state)
{
    switch (state) {
    case shm::WorkerState::empty:
        return "empty";
    case shm::WorkerState::starting:
        return "starting";
    case shm::WorkerState::ready:
        return "ready";
    case shm::WorkerState::draining:
        return "draining";
    }
    return "unknown";
}

/// Aggregate the segment's slot table into the pool section of a
/// scope-"server" stats response (run by whichever worker answers it).
void fill_pool_section(const shm::Segment& segment, protocol::ServerCounters& counters)
{
    const shm::PoolMeta meta = segment.pool_meta();
    counters.pool.enabled = true;
    counters.pool.workers = meta.workers;
    counters.pool.restarts = meta.restarts;
    counters.pool.quarantined = meta.quarantined;
    for (const shm::WorkerSlotView& slot : segment.read_slots()) {
        if (slot.state == shm::WorkerState::empty) {
            continue;
        }
        if (slot.state == shm::WorkerState::ready) {
            ++counters.pool.ready;
        }
        protocol::ServerCounters::PoolWorker worker;
        worker.pid = slot.pid;
        worker.state = state_name(slot.state);
        worker.heartbeat = slot.heartbeat;
        worker.received = slot.received;
        worker.ok = slot.ok;
        worker.failed = slot.failed;
        worker.connections_accepted = slot.connections_accepted;
        worker.requests_admitted = slot.requests_admitted;
        worker.requests_rejected = slot.requests_rejected;
        worker.shm_hits = slot.shm_hits;
        worker.shm_misses = slot.shm_misses;
        worker.shm_publishes = slot.shm_publishes;
        worker.shm_fallbacks = slot.shm_fallbacks;
        counters.pool.per_worker.push_back(worker);
    }
}

/// Child side of one fork: a complete Server on the inherited listener
/// fd, a heartbeat ticker pushing counters into the worker's slot, and
/// a readiness byte once accepting. Returns the worker's exit status.
int worker_main(const PreforkOptions& options, std::size_t slot_index, int listener_fd,
                const std::shared_ptr<shm::Segment>& segment, int ready_fd,
                ShutdownLatch& latch)
{
    ServerConfig config = options.server;
    if (segment != nullptr) {
        segment->claim_slot(slot_index, static_cast<std::uint32_t>(::getpid()));
        config.service.shm = std::make_shared<shm::ShmStore>(segment);
        std::shared_ptr<shm::Segment> pool_segment = segment;
        config.pool_stats = [pool_segment](protocol::ServerCounters& counters) {
            fill_pool_section(*pool_segment, counters);
        };
    }
    Server server(config); // a failure here escapes to spawn: exit status 1

    // Declared after the Server, so it is joined before the Server it
    // reads is destroyed.
    std::atomic<bool> stop_ticker{false};
    std::thread ticker;
    if (segment != nullptr) {
        ticker = std::thread([&stop_ticker, &server, segment, slot_index] {
            while (!stop_ticker.load(std::memory_order_acquire)) {
                shm::WorkerSlotView view;
                const protocol::RequestCounters requests = server.service().request_counters();
                const protocol::ServerCounters counters = server.counters();
                view.received = requests.received;
                view.ok = requests.ok;
                view.failed = requests.failed;
                view.connections_accepted = counters.connections_accepted;
                view.requests_admitted = counters.requests_admitted;
                view.requests_rejected = counters.requests_rejected;
                view.shm_hits = counters.shm.hits;
                view.shm_misses = counters.shm.misses;
                view.shm_publishes = counters.shm.publishes;
                view.shm_fallbacks = counters.shm.fallbacks;
                segment->update_slot(slot_index, view);
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
        });
    }

    int exit_code = 0;
    try {
        server.start(net::Listener::adopt(listener_fd));
        if (segment != nullptr) {
            segment->set_slot_state(slot_index, shm::WorkerState::ready);
        }
        const char byte = 1;
        (void)!::write(ready_fd, &byte, 1);
        server.run(latch); // blocks until SIGTERM, then drains
        if (segment != nullptr) {
            segment->set_slot_state(slot_index, shm::WorkerState::draining);
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "mst serve worker: %s\n", error.what());
        exit_code = 1;
    } catch (...) {
        exit_code = 1;
    }
    stop_ticker.store(true, std::memory_order_release);
    if (ticker.joinable()) {
        ticker.join();
    }
    return exit_code;
}

} // namespace

int run_prefork(const PreforkOptions& options, ShutdownLatch& latch)
{
    if (options.processes < 1 ||
        options.processes > static_cast<int>(shm::Segment::max_workers)) {
        throw ValidationError("--processes must be between 1 and " +
                              std::to_string(shm::Segment::max_workers));
    }

    // Bind once in the parent; workers adopt the inherited fd, so the
    // kernel balances accepts across them and port 0 resolves before
    // any worker exists. The parent keeps its descriptor for respawns.
    net::Listener listener = net::Listener::bind(options.server.listen);
    const net::Endpoint bound = listener.local_endpoint();

    std::shared_ptr<shm::Segment> segment;
    if (!options.shm_name.empty()) {
        try {
            segment = shm::Segment::create_or_attach(options.shm_name, options.shm_bytes);
        } catch (const std::exception& error) {
            // Degraded mode: workers run local-only caches and heartbeat
            // supervision falls back to waitpid liveness. Never fatal.
            std::fprintf(stderr, "mst serve: shared-memory tier degraded (%s)\n",
                         error.what());
        }
    }
    if (segment != nullptr) {
        shm::PoolMeta meta;
        meta.workers = static_cast<std::uint64_t>(options.processes);
        segment->set_pool_meta(meta);
    }

    // Readiness pipe: each worker writes one byte once it is accepting.
    // With a segment the slot states are authoritative; the pipe is the
    // fallback so the port file still gates on readiness without shm.
    int ready_pipe[2] = {-1, -1};
    if (::pipe(ready_pipe) != 0) {
        throw Error(std::string("cannot create readiness pipe: ") + std::strerror(errno));
    }
    (void)::fcntl(ready_pipe[0], F_SETFL, O_NONBLOCK);
    (void)::fcntl(ready_pipe[1], F_SETFL, O_NONBLOCK);

    struct Slot {
        supervisor::Child child;      ///< pid -1 while not running
        int attempts = 0;             ///< worker executions started
        int consecutive_failures = 0; ///< reset on a clean drain only
        bool quarantined = false;
        Clock::time_point not_before{}; ///< respawn backoff gate
    };
    std::vector<Slot> slots(static_cast<std::size_t>(options.processes));

    auto spawn = [&](std::size_t index) -> bool {
        Slot& slot = slots[index];
        const pid_t pid = supervisor::spawn(slot.attempts, [&] {
            (void)::close(ready_pipe[0]);
            return worker_main(options, index, listener.fd(), segment, ready_pipe[1], latch);
        });
        if (pid < 0) {
            return false;
        }
        slot.child = {pid, 0, Clock::now()};
        ++slot.attempts;
        return true;
    };

    auto handle_failure = [&](std::size_t index, const char* what) {
        Slot& slot = slots[index];
        slot.child.pid = -1;
        ++slot.consecutive_failures;
        std::fprintf(stderr, "mst serve: worker %zu %s\n", index, what);
        if (slot.consecutive_failures > options.max_restarts) {
            // Give up on this slot; the pool keeps serving on the rest.
            slot.quarantined = true;
            if (segment != nullptr) {
                segment->add_pool_quarantine();
                segment->clear_slot(index);
            }
            std::fprintf(stderr,
                         "mst serve: worker %zu quarantined after %d consecutive failures\n",
                         index, slot.consecutive_failures);
            return;
        }
        // A crash loop cannot spin: the respawn waits at least 1 ms.
        slot.not_before = Clock::now() + supervisor::capped_backoff(
                                             std::max(options.backoff_ms, 1),
                                             options.backoff_cap_ms, slot.consecutive_failures - 1);
    };

    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!spawn(i)) {
            handle_failure(i, "failed to fork");
        }
    }

    bool announced = false;
    bool gave_up = false;
    std::size_t ready_bytes = 0;

    while (!latch.requested()) {
        // Drain readiness bytes (level counter; only consulted when no
        // segment carries authoritative slot states).
        char buffer[64];
        long n = 0;
        while ((n = ::read(ready_pipe[0], buffer, sizeof buffer)) > 0) {
            ready_bytes += static_cast<std::size_t>(n);
        }

        bool all_quarantined = true;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot& slot = slots[i];
            if (slot.quarantined) {
                continue;
            }
            all_quarantined = false;
            if (slot.child.pid >= 0) {
                // Heartbeat watchdog, once the worker has claimed its
                // slot: a slot that stops ticking means a wedged worker,
                // killed and treated as a death.
                std::uint64_t heartbeat = slot.child.progress;
                int timeout_ms = 0;
                if (segment != nullptr && options.heartbeat_timeout_ms > 0) {
                    const shm::WorkerSlotView view = segment->read_slot(i);
                    if (view.pid == static_cast<std::uint32_t>(slot.child.pid)) {
                        heartbeat = view.heartbeat;
                        timeout_ms = options.heartbeat_timeout_ms;
                    }
                }
                int status = 0;
                switch (supervisor::check(slot.child, heartbeat, timeout_ms, &status)) {
                case supervisor::ChildState::running:
                    break;
                case supervisor::ChildState::exited:
                    handle_failure(i, WIFSIGNALED(status) ? "died on a signal"
                                                          : "exited unexpectedly");
                    break;
                case supervisor::ChildState::hung:
                    handle_failure(i, "heartbeat stalled; killed");
                    break;
                }
            } else if (Clock::now() >= slot.not_before) {
                if (segment != nullptr) {
                    segment->add_pool_restart();
                }
                if (!spawn(i)) {
                    handle_failure(i, "failed to fork");
                }
            }
        }
        if (all_quarantined) {
            std::fprintf(stderr,
                         "mst serve: every worker slot is quarantined; giving up\n");
            gave_up = true;
            break;
        }

        if (!announced) {
            // Gate the port file on full readiness: a polling client
            // never connects into a pool that cannot serve yet.
            std::size_t live = 0;
            std::size_t ready = 0;
            for (std::size_t i = 0; i < slots.size(); ++i) {
                if (slots[i].quarantined) {
                    continue;
                }
                ++live;
                if (segment != nullptr) {
                    const shm::WorkerSlotView view = segment->read_slot(i);
                    if (slots[i].child.pid >= 0 &&
                        view.pid == static_cast<std::uint32_t>(slots[i].child.pid) &&
                        view.state == shm::WorkerState::ready) {
                        ++ready;
                    }
                }
            }
            if (segment == nullptr) {
                ready = std::min(ready_bytes, live);
            }
            if (live > 0 && ready >= live) {
                if (!options.port_file.empty() &&
                    !supervisor::write_file_atomic(options.port_file, bound.to_string() + '\n')) {
                    std::fprintf(stderr, "mst serve: cannot write '%s'\n",
                                 options.port_file.c_str());
                    gave_up = true;
                    break;
                }
                std::fprintf(stderr,
                             "mst serve: %zu workers listening on %s (protocol v%d); "
                             "SIGTERM drains and exits\n",
                             live, bound.to_string().c_str(), protocol::version);
                announced = true;
            }
        }

        // Sleep a short slice, waking early when the shutdown latch's
        // self-pipe becomes readable.
        pollfd pfd{};
        pfd.fd = latch.poll_fd();
        pfd.events = POLLIN;
        (void)::poll(&pfd, 1, 50);
    }

    // Shutdown fan-out: SIGTERM every live worker, reap with a drain
    // grace, SIGKILL stragglers — and say so via the exit code.
    std::vector<pid_t> live;
    for (const Slot& slot : slots) {
        if (slot.child.pid >= 0) {
            live.push_back(slot.child.pid);
        }
    }
    const bool killed_in_drain = supervisor::drain(std::move(live), options.drain_timeout_ms);
    if (killed_in_drain) {
        std::fprintf(stderr,
                     "mst serve: drain timeout expired; straggling workers SIGKILLed\n");
    }

    (void)::close(ready_pipe[0]);
    (void)::close(ready_pipe[1]);
    if (segment != nullptr && segment->created()) {
        segment->unlink();
    }
    return (killed_in_drain || gave_up) ? 1 : 0;
}

} // namespace mst
