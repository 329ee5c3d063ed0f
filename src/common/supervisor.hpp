// One copy of each process-supervision mechanism, shared by the two
// forking front ends (the `mst sweep` shard supervisor and the
// `mst serve --processes` pool) and by the server's accept backoff.
// Failure policy — what a death means, what to quarantine, when to
// give up — stays with each front end.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mst::supervisor {

using Clock = std::chrono::steady_clock;

/// Backoff before retry `k` (0-based): min(base_ms << min(k, 20),
/// max(cap_ms, base_ms)), or 0 when base_ms <= 0. Derived from the
/// retry count only, so the schedule is deterministic.
[[nodiscard]] std::chrono::milliseconds capped_backoff(int base_ms, int cap_ms, int k);

/// What a forked child does with SIGTERM/SIGINT.
enum class ChildSignals {
    inherit, ///< keep the parent's handlers; the child drains via its latch
    reset,   ///< default action: the signal ends the child on the spot
};

/// Fork a child that sets its fault-injection attempt number, moves the
/// global ShutdownLatch onto its own self-pipe, applies `signals`, runs
/// `body` and _exits with its result (an escaping exception is printed
/// and becomes 1), never flushing the parent's stdio. SIGTERM/SIGINT
/// stay blocked across the fork, so a forwarded signal cannot land
/// before that set-up. Returns the child's pid, or -1 if fork failed.
pid_t spawn(int attempt, const std::function<int()>& body,
            ChildSignals signals = ChildSignals::inherit);

/// A running child and its watchdog state, e.g. `{pid, progress,
/// Clock::now()}` at spawn. The progress value is what the front end
/// can observe of the child: shard-file size for a sweep worker, slot
/// heartbeat for a pool worker.
struct Child {
    pid_t pid = -1;
    std::uint64_t progress = 0;
    Clock::time_point last_progress{};
};

enum class ChildState {
    running,
    exited, ///< reaped; *status holds the wait status (-1 if unwaitable)
    hung,   ///< progress stalled past the timeout: SIGKILLed and reaped
};

/// Non-blocking check of a watched child: reap it if it exited, else
/// feed `progress` to the watchdog, which SIGKILLs and reaps a child
/// whose value has not changed for longer than `timeout_ms` (0 = off).
[[nodiscard]] ChildState check(Child& child, std::uint64_t progress, int timeout_ms,
                               int* status);

/// SIGTERM every pid, reap them until `timeout_ms` passes, then SIGKILL
/// and reap the stragglers. Returns true when any child was killed.
bool drain(std::vector<pid_t> pids, int timeout_ms);

/// Write `text` to `path.tmp`, then rename it onto `path`: a polling
/// reader sees no file or the whole text, never a partial write.
[[nodiscard]] bool write_file_atomic(const std::string& path, const std::string& text);

} // namespace mst::supervisor
