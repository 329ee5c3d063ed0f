// Compact binary record format of the sweep engine's per-shard result
// files (shard-NNNN.msr). One file per shard, streamed record by record
// as scenarios complete, so a killed run loses at most the scenario in
// flight; a trailer written on completion marks the file as a valid
// checkpoint a resumed run can reuse without recomputation.
//
// Layout (all integers little-endian; layout documented in docs/sweep.md):
//
//   header   "MSTSWP02" | shard u32 | shard_count u32 |
//            spec_fingerprint u64 | expected_records u32
//   records  index u32 | status u8 (1 ok / 0 error / 2 heartbeat) | payload
//     ok:    sites u32 | channels_per_site u32 | test_cycles u64 |
//            devices_per_hour f64 | pack_calls u64 | pack_cache_hits u64 |
//            greedy_passes u64 | depth_profiles u64 | pruned_packs u64 |
//            site_points u64 | wall_ns u64
//     error: kind u8 (1 infeasible / 2 validation / 3 other /
//            4 worker_crash) | message_length u32 | message bytes
//     heartbeat: attempt u32 — "scenario `index` is starting on worker
//            attempt N". Written before each scenario runs, so after a
//            worker crash the supervisor can read the partial file and
//            name the scenario that was in flight (the poison candidate).
//   trailer  "MSTSWPOK" | record_count u32 | checksum u64
//            (record_count counts result records only; the FNV-1a
//            checksum covers every record-section byte, heartbeats
//            included)
//
// Durability: shard data is fsync'd before the trailer goes out, so a
// trailer that validates can never describe records a torn write lost.
// wall_ns is the one non-deterministic field; the merged report.json
// deliberately excludes it (see sweep.hpp), so checkpoint reuse cannot
// perturb the deterministic final report. Heartbeat records likewise
// never reach the report — they exist only for crash forensics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mst {

/// Error classification of a failed scenario, as run_scenario
/// (scenario_runner.hpp) reports it; pinned to stable wire values.
enum class SweepErrorKind : std::uint8_t {
    infeasible = 1,   ///< InfeasibleError: no solution on the given cell
    validation = 2,   ///< ValidationError: malformed scenario
    other = 3,        ///< anything else
    worker_crash = 4, ///< scenario quarantined after repeated worker deaths
};

[[nodiscard]] const char* sweep_error_kind_name(SweepErrorKind kind) noexcept;

/// One scenario outcome, as stored in a shard file.
struct SweepRecord {
    std::uint32_t index = 0; ///< global scenario index in the expanded spec
    bool ok = false;

    // ok payload: the solution fingerprint + optimizer work counters.
    std::uint32_t sites = 0;
    std::uint32_t channels_per_site = 0;
    std::uint64_t test_cycles = 0;
    double devices_per_hour = 0;
    std::uint64_t pack_calls = 0;
    std::uint64_t pack_cache_hits = 0;
    std::uint64_t greedy_passes = 0;
    std::uint64_t depth_profiles = 0;
    std::uint64_t pruned_packs = 0;
    std::uint64_t site_points = 0;
    /// Wall time of the optimize call in nanoseconds. Feeds the
    /// per-shard latency percentiles; never part of report.json.
    std::uint64_t wall_ns = 0;

    // error payload
    SweepErrorKind error_kind = SweepErrorKind::other;
    std::string error;
};

/// Streaming shard-file writer. Records are appended and flushed one by
/// one; finish() writes the trailer that marks the checkpoint complete.
/// A file without a valid trailer (crash, SIGKILL, disk full) is not a
/// checkpoint and gets recomputed on resume.
class ShardWriter {
public:
    /// Opens `path` for writing (truncating any stale partial file) and
    /// writes the header. Throws ValidationError on I/O failure.
    ShardWriter(const std::string& path, std::uint32_t shard, std::uint32_t shard_count,
                std::uint64_t spec_fingerprint, std::uint32_t expected_records);
    ~ShardWriter();

    ShardWriter(const ShardWriter&) = delete;
    ShardWriter& operator=(const ShardWriter&) = delete;

    /// Append one record and flush it to disk. Throws
    /// CheckpointWriteError on I/O failure (or an injected
    /// `sweep.checkpoint_write` fault).
    void write(const SweepRecord& record);

    /// Append a heartbeat marking scenario `index` as starting on worker
    /// `attempt`, and flush it. Heartbeats count toward the checksum but
    /// not toward the trailer's record count.
    void heartbeat(std::uint32_t index, std::uint32_t attempt);

    /// fsync the record data, then write the trailer and close. Throws
    /// ValidationError if the record count does not match the header's
    /// expectation, CheckpointWriteError on I/O failure.
    void finish();

private:
    struct Impl;
    Impl* impl_;
};

/// A heartbeat read back from a shard file.
struct SweepHeartbeat {
    std::uint32_t index = 0;   ///< global scenario index that was starting
    std::uint32_t attempt = 0; ///< worker attempt number that started it
};

/// A fully parsed shard file.
struct ShardFile {
    std::uint32_t shard = 0;
    std::uint32_t shard_count = 0;
    std::uint64_t spec_fingerprint = 0;
    std::uint32_t expected_records = 0;
    bool complete = false; ///< trailer present, counts and checksum valid
    std::vector<SweepRecord> records; ///< result records only
    std::vector<SweepHeartbeat> heartbeats;

    /// The scenario a crashed worker was executing: the latest heartbeat
    /// whose scenario has no result record. nullopt for a file that ends
    /// cleanly between scenarios (or has no heartbeats at all).
    [[nodiscard]] std::optional<std::uint32_t> poison_index() const;
};

/// Read a shard file. Returns nullopt when the file is missing or its
/// header is unreadable; a file with a good header but no valid trailer
/// comes back with complete == false (a partial checkpoint to discard).
[[nodiscard]] std::optional<ShardFile> read_shard_file(const std::string& path);

} // namespace mst
