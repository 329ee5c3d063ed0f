// Persistent request service: the engine behind `mst serve` (stdio and
// TCP), `mst replay <file>` (request files), and the network server.
//
// The request/response wire format is owned by service/protocol.hpp —
// one parse/serialize path for every front end. This layer adds what a
// one-shot CLI cannot:
//   * a resolution cache - LRU from the exact bytes of an inline
//     `soc_text` to its parsed SOC and content fingerprint, so a client
//     re-sending one SOC with different cells parses and fingerprints
//     it once. Path specs are never cached (the file may change between
//     requests) and built-in names are cheap. Not in stats responses,
//   * a TablesCache - LRU of immutable SocTimeTables keyed by SOC
//     content fingerprint, shared across requests and threads,
//   * a bounded solution memo keyed by (fingerprint, cell, options),
//     with hit/miss counters surfaced via `{"op": "stats"}` requests,
//   * concurrent request execution over the shared executor with
//     deterministic per-request response ordering: responses[i] always
//     answers lines[i], and response bytes are identical at any thread
//     count (caches are single-flight, so even the stats counters are
//     stable as long as nothing is evicted),
//   * per-request error isolation: a malformed request yields one typed
//     error response (protocol::ErrorKind taxonomy), never a dead
//     server.
//
// The network server (service/server.hpp) runs on the same instance:
// run_request() executes one already-parsed request thread-safely, and
// stats_response() snapshots the counters for a stats barrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/lru_cache.hpp"
#include "service/protocol.hpp"
#include "service/tables_cache.hpp"

namespace mst {

struct ServiceConfig {
    /// Worker threads for execute(); <= 0 selects hardware_concurrency.
    int threads = 0;
    /// LRU capacity of the wrapper-time-tables cache and of the inline
    /// SOC resolution cache (distinct SOCs, each).
    std::size_t tables_cache_capacity = 16;
    /// LRU capacity of the solution memo (distinct full requests).
    std::size_t memo_capacity = 256;
    /// Shared-memory cache tier, a second level *under* the tables cache
    /// and the solution memo (docs/shm.md); nullptr = local-only. A
    /// degraded store (configured but unattached) stays set so stats can
    /// report the degradation.
    std::shared_ptr<shm::ShmStore> shm;
};

/// An SOC resolved from a request: parsed once, fingerprinted once.
struct ResolvedSoc {
    std::shared_ptr<const Soc> soc;
    std::uint64_t fingerprint = 0;
    std::string fingerprint_text; ///< fingerprint_hex(fingerprint)
};

/// Memoized outcome of one distinct (SOC, cell, options) optimization:
/// either the serialized compact solution JSON or the captured error.
/// Stored (not recomputed) so repeated requests are byte-identical and
/// nearly free.
struct SolutionOutcome {
    bool ok = false;
    std::string solution_json;  ///< compact JSON object when ok
    std::string fingerprint;    ///< SOC content fingerprint, hex
    protocol::WireError error;  ///< kind != none when !ok
};

class RequestService {
public:
    explicit RequestService(ServiceConfig config = {});

    /// Execute a batch of request lines; responses[i] answers lines[i].
    /// `stats` requests act as barriers: they report the state after
    /// every preceding line completed. Never throws per-request errors.
    [[nodiscard]] std::vector<std::string> execute(const std::vector<std::string>& lines);

    /// One request line (the stdio serve loop's unit of work).
    [[nodiscard]] std::string execute_one(const std::string& line);

    /// JSON-lines loop: one response per non-blank request line, flushed
    /// after each so the peer can pipeline. Returns at EOF.
    void serve(std::istream& in, std::ostream& out);

    /// Run one already-parsed request (optimize, or a request that
    /// failed interpretation) to its response line, counting it.
    /// Thread-safe; never throws. `hello` requests are rejected here —
    /// negotiation belongs to the network connection, not the service.
    [[nodiscard]] std::string run_request(const protocol::Request& request);

    /// Load-shedding probe: the response for an optimize request whose
    /// outcome already sits in the solution memo, or nullopt when it
    /// would need real work (unknown key, compute still in flight, SOC
    /// unreadable). Never optimizes, never blocks on a compute — cheap
    /// enough for the server to answer cache hits even while the
    /// admission queue refuses new work (at most it joins an in-flight
    /// parse of the same inline text, no longer than parsing it). A
    /// served hit is counted like a completed request.
    [[nodiscard]] std::optional<std::string> cached_response(
        const protocol::Request& request);

    /// Stats response for a barrier point: snapshots the counters, then
    /// counts the stats request itself. The caller guarantees barrier
    /// semantics (all prior requests completed, none admitted after).
    /// `server` adds the network server's section (scope "server").
    [[nodiscard]] std::string stats_response(const protocol::Request& request,
                                             const protocol::ServerCounters* server);

    /// Worker threads execute() will use for `jobs` requests.
    [[nodiscard]] int thread_count(std::size_t jobs) const noexcept;

    [[nodiscard]] CacheStats tables_cache_stats() const { return tables_.stats(); }
    /// Inline SOC resolution cache; test-only, never in a stats payload.
    [[nodiscard]] CacheStats soc_cache_stats() const { return socs_.stats(); }
    [[nodiscard]] CacheStats memo_stats() const { return memo_.stats(); }

    /// Raw request counters (the prefork worker's heartbeat pushes
    /// these into its shared-memory slot between stats barriers).
    [[nodiscard]] protocol::RequestCounters request_counters() const
    {
        protocol::RequestCounters counters;
        counters.received = received_.load();
        counters.ok = ok_.load();
        counters.failed = failed_.load();
        return counters;
    }

    /// The shared-memory store this service was configured with (may be
    /// null, or degraded — see shm::ShmStore::attached()).
    [[nodiscard]] const std::shared_ptr<shm::ShmStore>& shm_store() const noexcept
    {
        return config_.shm;
    }

    /// Fill the "shm" section of a scope-"server" stats snapshot from
    /// the configured store (no-op when no store is configured).
    void fill_shm_section(protocol::ServerCounters& server) const;

    /// Service-level health snapshot (the server overlays its queue
    /// depths before serialization; over stdio these stay zero).
    [[nodiscard]] protocol::HealthInfo health_info() const;

private:
    /// The request's SOC, parsed and fingerprinted. Inline text goes
    /// through the resolution cache, which keeps parse and validation
    /// failures (functions of the bytes) and forgets any other; names
    /// and paths resolve afresh. Throws ParseError / ValidationError for
    /// a bad SOC.
    [[nodiscard]] std::shared_ptr<const ResolvedSoc> resolve(
        const protocol::Request& request);
    [[nodiscard]] std::string run_optimize(const protocol::Request& request, bool& ok);
    [[nodiscard]] std::shared_ptr<const SolutionOutcome> outcome_for(
        const protocol::Request& request);

    ServiceConfig config_;
    /// Keyed by the full text: std::map compares whole keys, so no hash
    /// collision can hand back another request's SOC.
    LruCache<std::string, ResolvedSoc> socs_;
    TablesCache tables_;
    LruCache<std::string, SolutionOutcome> memo_;

    // Request counters surfaced by stats requests. Atomic because the
    // network server counts from many connection/worker threads; the
    // totals a barrier reads are scheduling-independent either way.
    std::atomic<std::uint64_t> received_{0};
    std::atomic<std::uint64_t> ok_{0};
    std::atomic<std::uint64_t> failed_{0};
};

} // namespace mst
