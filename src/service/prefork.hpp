// Supervised prefork pool behind `mst serve --listen --processes N`.
//
// The parent binds the listening socket once, creates (or degrades
// without) the shared-memory segment, and forks N workers that each run
// a full Server on a dup of the inherited listener fd — the kernel
// balances accepts across them. The parent never serves requests; it
// supervises on common/supervisor (docs/robustness.md): dead workers
// are respawned behind a capped exponential backoff, a worker whose
// shared-memory slot heartbeat stalls is SIGKILLed, a slot failing
// more than max_restarts times in a row is quarantined, the port file
// appears only once every worker is ready, and SIGTERM/SIGINT fan out
// to the workers, which drain and exit.
//
// Crash tolerance of the cache tier (docs/shm.md) means a worker dying
// mid-publish never corrupts the segment: the next writer truncates the
// torn tail and recomputes. Byte-identity contract: one ordered
// connection replaying a request stream receives byte-identical
// responses at any process count, shm on or off, because a connection
// is served end-to-end by one worker and every response is a
// deterministic function of the request stream.
#pragma once

#include <cstddef>
#include <string>

#include "common/signals.hpp"
#include "service/server.hpp"

namespace mst {

struct PreforkOptions {
    ServerConfig server;  ///< per-worker server configuration
    int processes = 2;    ///< pool size (1..shm::Segment::max_workers)
    /// Shared-memory segment name ("" = supervise without a shared
    /// cache tier; heartbeats then degrade to waitpid-only liveness).
    std::string shm_name;
    std::size_t shm_bytes = std::size_t{8} << 20;
    /// Written (atomically, tmp+rename) once every worker is ready.
    std::string port_file;
    int max_restarts = 5;    ///< consecutive failures before quarantine
    int backoff_ms = 50;     ///< respawn backoff: min(base << k, cap)
    int backoff_cap_ms = 2000;
    /// SIGKILL a worker whose slot heartbeat stalls this long (0 = off;
    /// requires the shared segment).
    int heartbeat_timeout_ms = 30000;
    /// SIGTERM-to-SIGKILL grace during shutdown drain.
    int drain_timeout_ms = 10000;
};

/// Run the pool until `latch` requests shutdown. Returns the process
/// exit code: 0 on a clean drain, nonzero when any worker had to be
/// SIGKILLed during the drain or every slot ended up quarantined.
[[nodiscard]] int run_prefork(const PreforkOptions& options, ShutdownLatch& latch);

} // namespace mst
