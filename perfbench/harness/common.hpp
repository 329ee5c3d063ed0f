// Shared plumbing of the benchmark harness: clocks, seeds, percentiles,
// output digests and the result line the harness prints for run.py.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/// Derive an independent 64-bit seed from the workload seed and up to two
/// coordinates (cycle, item). SplitMix64 finalizer: stable across
/// compilers and standard libraries, unlike std:: distributions.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Uniform double in [0, 1) from a SplitMix64 stream.
[[nodiscard]] double next_unit(std::uint64_t& state);

/// mst::TimingStats::percentile of the samples, unsorted (q in [0, 1]);
/// 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// FNV-1a over the outputs a workload produced, printed as its digest.
class Digest {
public:
    void add(std::string_view bytes);
    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t hash_ = 1469598103934665603ULL;
};

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Settings of one harness run (parsed from the command line).
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    int threads = 4;        ///< intra-request concurrency cap (<= nproc)
    std::string server;     ///< serve-mix: host:port of the running mst serve
    std::string trace_out;  ///< where the traced run writes its spans
};

/// What a harness run reports: whether every output matched, the
/// operations attempted and failed, the metrics in print order, and
/// free-form diagnostic lines.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    struct Metric {
        std::string name;
        double value = 0;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
    /// A failed operation: counted, remembered in the notes (first few).
    void fail(const std::string& why);

    /// One JSON object: correct, attempted, failed, metrics, notes.
    [[nodiscard]] std::string json() const;
};

/// The timed operations of one cycle of a workload's input list.
struct CycleTiming {
    bool traced = false;
    std::vector<double> latencies; ///< seconds per operation; NaN marks a failed one
    double busy_s = 0;             ///< timed seconds of the cycle
};

/// Run a fixed number of whole cycles: --seconds over the workload's
/// nominal cycle time (timed seconds of one cycle on a 4-core Xeon VM),
/// at least four. Every run of one --seconds does the same work, however
/// fast the machine. A traced run alternates untraced (even) and traced
/// (odd) cycles, so the tracing overhead compares like with like.
/// `run_cycle(cycle, traced, latencies)` returns its timed seconds.
template <typename RunCycle>
std::vector<CycleTiming> run_cycles(const RunConfig& config, double nominal_cycle_s,
                                    RunCycle&& run_cycle)
{
    const long count = std::max(4L, std::lround(config.seconds / nominal_cycle_s));
    std::vector<CycleTiming> cycles;
    for (int cycle = 0; cycle < count; ++cycle) {
        CycleTiming timing;
        timing.traced = config.trace && cycle % 2 == 1;
        timing.busy_s = run_cycle(cycle, timing.traced, timing.latencies);
        cycles.push_back(std::move(timing));
    }
    return cycles;
}

// Noise on a shared host only ever adds time: a co-tenant's burst slows
// whatever runs beside it for a second or so. The figures below are
// therefore taken from the least disturbed of the run's repeats.

/// The plan workloads repeat the same positions (scenario shapes) every
/// cycle: the fastest latency of each position over the cycles with the
/// given tracing.
[[nodiscard]] std::vector<double> position_best(const std::vector<CycleTiming>& cycles,
                                                bool traced);

/// latency_p50_ms and latency_p90_ms over the positions' best latencies,
/// and ops_per_s: positions per second of their sum. Also noted under the
/// planning names solve_p50_ms, solve_p90_ms and solves_per_s.
void add_position_metrics(Result& result, const std::vector<double>& best);

/// serve-mix: latency_p50_ms, latency_p90_ms and ops_per_s (requests over
/// drain time) of each untraced cycle; reported is the lower quartile of
/// the cycles' latencies and the upper quartile of their rates.
/// Also noted as req_p50_ms, req_p90_ms, req_p99_ms and req_per_s: 1200
/// requests a cycle leave twelve beyond the p99, the plan workloads'
/// positions too few for it, so the p99 is a serve-only note.
void add_cycle_metrics(Result& result, const std::vector<CycleTiming>& cycles);

/// The lower quartile of the median latencies of the cycles with the
/// given tracing, in ms.
[[nodiscard]] double cycle_p50_ms(const std::vector<CycleTiming>& cycles, bool traced);

/// setup_s: the median of the set-up repetitions.
void add_setup_metric(Result& result, const std::vector<double>& setups);

} // namespace perfbench
