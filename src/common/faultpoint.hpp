// Deterministic fault injection: a process-wide registry of named fault
// points that hot paths probe via a zero-cost-when-disabled macro.
//
// A *fault plan* — parsed from `--fault-plan` / the MST_FAULT_PLAN
// environment variable — arms the registry with rules of the form
//
//   <point>:<action>[@<N>][*<R>][=<ERRNO>]
//
// separated by ',' or ';'. A rule fires on exactly the N-th hit of its
// point (1-based, counted per process, default: the first hit), and
// only while the process's
// *attempt* number (see set_attempt) is below R (default 1, so a rule
// fires once and never again on a supervised restart). Actions:
//
//   fail   the probe returns the given std::errc (default EIO); the
//          call site maps it into its natural failure path (errno,
//          a typed exception, a false return),
//   crash  the process exits immediately with status 70 — a stand-in
//          for SIGKILL/OOM on a sweep worker (never returns),
//   hang   the probe blocks for an hour — a stand-in for a wedged
//          worker, for exercising watchdog kills (worker points only).
//
// Determinism contract: hit ordinals are counted per process, so a
// fault plan replayed against the same single-threaded request stream
// fires at exactly the same operation every run, byte for byte. Points
// hit concurrently from several threads (e.g. per-connection writes
// under parallel clients) still fire exactly once, but *which* thread
// trips the ordinal depends on scheduling — deterministic chaos tests
// drive such points from one connection at a time.
//
// When no plan is installed, MST_FAULTPOINT is one relaxed atomic load
// and a predictable branch — cheap enough for accept/write/checkpoint
// paths, which is the whole point: the probes stay compiled in, so the
// chaos CI exercises the exact binaries production runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

namespace mst::fault {

enum class Action {
    fail,  ///< return the rule's std::errc from the probe
    crash, ///< _exit(70) — simulated worker death
    hang,  ///< block ~1h — simulated wedge (watchdog fodder)
};

/// One parsed plan rule. `at` is the 1-based hit ordinal that trips it;
/// `attempts` gates it to process attempts 0..attempts-1.
struct Rule {
    std::string point;
    Action action = Action::fail;
    std::uint64_t at = 1;
    int attempts = 1;
    std::errc code = std::errc::io_error;
};

struct Plan {
    std::vector<Rule> rules;
};

/// The catalog of fault points compiled into the binary. Plans may only
/// name these (typos get a nearest-match suggestion).
[[nodiscard]] const std::vector<const char*>& known_points();

/// Parse a plan string (syntax above). Throws ValidationError on an
/// unknown point/action/errno name or a malformed ordinal.
[[nodiscard]] Plan parse_plan(const std::string& text);

/// Install (and arm) a plan, replacing any previous one. Hit counters
/// are reset. An empty plan disarms.
void install_plan(Plan plan);

/// Disarm and forget the plan and all counters (tests).
void clear_plan();

/// The process attempt number used by `*R` gating. supervisor::spawn
/// sets this in every forked worker to its restart count, so "fail on
/// attempt 0 only" rules stop firing after a restart. Defaults
/// to 0; MST_FAULT_ATTEMPT seeds it for exec'd processes.
void set_attempt(int attempt) noexcept;
[[nodiscard]] int attempt() noexcept;

/// Hits recorded for `point` since the plan was installed (tests/stats).
[[nodiscard]] std::uint64_t hit_count(const std::string& point);

namespace detail {
extern std::atomic<bool> armed;
/// Slow path behind the macro: count the hit, fire a due rule.
[[nodiscard]] std::errc fire(const char* point);
} // namespace detail

/// True when a non-empty plan is installed.
[[nodiscard]] inline bool armed() noexcept
{
    return detail::armed.load(std::memory_order_relaxed);
}

} // namespace mst::fault

/// Probe a fault point. Evaluates to std::errc{} (no fault) on the fast
/// path; under an armed plan it may return an injected errc, or not
/// return at all (crash/hang actions).
#define MST_FAULTPOINT(point)                                                                 \
    (::mst::fault::armed() ? ::mst::fault::detail::fire(point) : std::errc{})
