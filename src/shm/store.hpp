// Typed cache store over the crash-safe shared-memory segment: the
// second-level tier under the request service's local LRUs.
//
// The store holds two entry families, both addressed by the existing
// FNV-1a content fingerprints:
//   * wrapper-time-table blobs (a SocTimeTables' effective times, keyed
//     by SOC content fingerprint; every row's extent and every derived
//     array come from the SOC on restore) — restoring one skips the
//     table build of a cold optimize request,
//   * solution-memo outcomes (serialized SolutionOutcome, keyed by the
//     full memo-key string, hashed for addressing and stored verbatim
//     in the payload so a hash collision reads as a miss, never as a
//     wrong answer).
//
// Placement matters for determinism: lookups and publishes happen
// *inside* the local caches' single-flight compute lambdas, so the
// local hit/miss/eviction counters — which the byte-identity goldens
// pin — are identical with the shared tier on, off, or degraded. The
// only observable difference is wall time.
//
// Failure policy (the robustness contract): every segment problem —
// open/map failure, version mismatch, checksum mismatch, torn or full
// arena, blob that fails validation — degrades to local computation and
// bumps a fallback counter. The store never throws past construction,
// never blocks on a busy writer, and never crashes the request path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "arch/channel_group.hpp"
#include "shm/segment.hpp"

namespace mst {
struct SolutionOutcome;
class Soc;
} // namespace mst

namespace mst::shm {

/// Local (per-process) view of the store's activity, reported in
/// scope-"server" stats alongside the segment-wide counters.
struct StoreCounters {
    bool enabled = false;  ///< a store was configured
    bool attached = false; ///< the segment mapped and validated
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t publishes = 0;
    std::uint64_t fallbacks = 0;         ///< degraded operations (see header)
    std::uint64_t checksum_failures = 0; ///< lookups rejected by validation
};

class ShmStore {
public:
    /// Open (create or attach) the store on segment `name` of `bytes`
    /// total size. Never throws: on any failure the returned store is
    /// *degraded* — attached() is false, every lookup misses, every
    /// publish is a no-op, and the failure is remembered for stats.
    [[nodiscard]] static std::shared_ptr<ShmStore> open(const std::string& name,
                                                        std::size_t bytes);

    /// Wrap an already-mapped segment (the prefork pool maps once in
    /// the parent; workers inherit the mapping across fork).
    explicit ShmStore(std::shared_ptr<Segment> segment);

    [[nodiscard]] bool attached() const noexcept { return segment_ != nullptr; }
    [[nodiscard]] const std::shared_ptr<Segment>& segment() const noexcept
    {
        return segment_;
    }

    /// Restore the time tables for `fingerprint`, or nullptr on miss /
    /// validation failure / degraded store. The returned tables
    /// reference `soc`, which must outlive them (the caller bundles
    /// both, see service/tables_cache.hpp).
    [[nodiscard]] std::unique_ptr<SocTimeTables> load_tables(
        std::uint64_t fingerprint, const Soc& soc);

    /// Publish freshly built tables (best effort; busy/full skips are
    /// silent — the local cache already holds the result).
    void publish_tables(std::uint64_t fingerprint, const SocTimeTables& tables);

    /// Restore the memoized outcome for `memo_key`, or nullptr.
    [[nodiscard]] std::shared_ptr<SolutionOutcome> load_outcome(
        const std::string& memo_key);

    void publish_outcome(const std::string& memo_key, const SolutionOutcome& outcome);

    [[nodiscard]] StoreCounters counters() const;
    [[nodiscard]] SegmentCounters segment_counters() const;

    // --- Blob codecs (exposed for tests; validated on decode) ---

    [[nodiscard]] static std::string encode_tables(const SocTimeTables& tables);
    /// Throws ValidationError on a malformed blob, or one whose times do
    /// not fit `soc`'s rows.
    [[nodiscard]] static std::unique_ptr<SocTimeTables> decode_tables(
        const std::string& blob, const Soc& soc);
    [[nodiscard]] static std::string encode_outcome(const std::string& memo_key,
                                                    const SolutionOutcome& outcome);
    /// nullptr when the blob's stored key differs from `memo_key` (hash
    /// collision); throws ValidationError on a malformed blob.
    [[nodiscard]] static std::shared_ptr<SolutionOutcome> decode_outcome(
        const std::string& blob, const std::string& memo_key);

private:
    std::shared_ptr<Segment> segment_; ///< nullptr = degraded

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> publishes_{0};
    std::atomic<std::uint64_t> fallbacks_{0};
    std::atomic<std::uint64_t> checksum_failures_{0};
};

} // namespace mst::shm
