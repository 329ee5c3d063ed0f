// The `mst bench` suite: canonical optimizer scenarios timed end to end
// (wrapper time tables + Step 1 + Step 2), with solution fingerprints
// guarding against "fast because wrong" and optional from-scratch
// baseline runs quantifying what the memoized pipeline buys.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ate/ate.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "perf/stopwatch.hpp"
#include "scenario/scenario_spec.hpp"
#include "soc/soc.hpp"

namespace mst {

/// One named bench scenario: an SOC on a test cell under one option
/// variant — the scenario layer's expansion unit, e.g.
/// "d695/512x7M/broadcast". Both canonical suites below are built as
/// ScenarioSpecs and expanded, like every other scenario surface.
using BenchCase = Scenario;

/// Compact solution identity: enough to detect any change in the chosen
/// operating point across code versions and pipeline modes.
struct SolutionFingerprint {
    SiteCount sites = 0;
    ChannelCount channels_per_site = 0;
    CycleCount test_cycles = 0;
    DevicesPerHour devices_per_hour = 0;

    [[nodiscard]] bool operator==(const SolutionFingerprint& other) const noexcept
    {
        return sites == other.sites && channels_per_site == other.channels_per_site &&
               test_cycles == other.test_cycles && devices_per_hour == other.devices_per_hour;
    }
};

/// Optimality-gap record of one certify scenario: the exact
/// branch-and-bound answer bracketed by the theoretical lower bound,
/// the Step-1 greedy, and the rectangle bin-packing baseline. Part of
/// the fingerprint family: bench_diff.py compares every field exactly,
/// so a node-count drift (lost determinism) or a gap drift (changed
/// answer) fails the diff just like a solution fingerprint mismatch.
struct ExactGapInfo {
    WireCount exact_wires = 0;       ///< B&B optimum (certified) or best found
    WireCount step1_wires = 0;       ///< greedy Step-1 wires
    WireCount binpack_wires = 0;     ///< bin-packing baseline wires
    WireCount lower_bound_wires = 0; ///< theoretical LB of [7]
    WireCount exact_gap = 0;         ///< step1_wires - exact_wires
    std::int64_t bnb_nodes = 0;      ///< thread-count-invariant node count
    bool certified = false;          ///< tree exhausted within budget
};

/// Measured outcome of one bench case.
struct BenchCaseResult {
    std::string name;
    std::string soc_name;
    std::string variant;
    ChannelCount channels = 0;
    CycleCount depth = 0;

    bool ok = false;
    std::string error; ///< set when !ok

    TimingStats wall;                          ///< memoized pipeline, full run
    std::optional<TimingStats> baseline_wall;  ///< from-scratch pipeline (--compare)
    std::optional<bool> fingerprint_matches_baseline;

    SolutionFingerprint fingerprint;
    OptimizerStats stats;
    std::optional<ExactGapInfo> exact; ///< set for certify scenarios
};

/// A full bench run, serialized by bench_report_to_json().
struct BenchReport {
    /// "quick" | "full" for unfiltered canonical runs; "custom" for
    /// filtered or caller-supplied case lists.
    std::string suite;
    int repetitions = 0;
    bool compared_baseline = false;
    /// Configured intra-scenario concurrency cap (0 = executor-wide).
    int threads = 0;
    Seconds total_seconds = 0;
    std::vector<BenchCaseResult> results;

    /// True when every case succeeded and (under --compare) every
    /// fingerprint matched its baseline.
    [[nodiscard]] bool all_ok() const noexcept;
};

/// Knobs of one bench invocation.
struct BenchOptions {
    bool quick = false;            ///< smaller suite, fewer repetitions
    int repetitions = 0;           ///< 0 = suite default (quick: 2, full: 5)
    bool compare_baseline = false; ///< also run the from-scratch pipeline
    std::string filter;            ///< substring filter on case names
    /// Intra-scenario concurrency cap (OptimizeOptions::threads) applied
    /// to every case; <= 0 uses the whole shared executor. Results are
    /// byte-identical at any value — this knob exists to measure how the
    /// fixed task schedule scales.
    int threads = 0;
};

/// The canonical scenario list: the four ITC'02 SOCs across
/// representative test cells and broadcast/abort/retest variants, plus
/// generator-scaled SOCs at 10x up to 1000x the d695 module count (the
/// 300x/1000x ones in wide-shallow and narrow-deep shapes). The quick
/// suite (>= 16 cases) drops the second cell and all large scaled SOCs
/// except gen300x-deep, which stays so CI smoke guards the large-scale
/// asymptotics.
[[nodiscard]] std::vector<BenchCase> canonical_bench_cases(bool quick);

/// Run `cases` under `options` (the filter applies here too).
[[nodiscard]] BenchReport run_bench(const std::vector<BenchCase>& cases,
                                    const BenchOptions& options);

/// Run the canonical suite selected by options.quick.
[[nodiscard]] BenchReport run_bench(const BenchOptions& options);

/// The certify scenario list: every ≤14-module view of the ITC'02 SOCs
/// (d695 whole, 12-module subsets of the larger three) plus small
/// generated SOCs, each run with OptimizeOptions::exact at depths tight
/// enough that the greedy is not trivially optimal. All scenarios are
/// sized to exhaust the B&B tree, so every gap is certified.
[[nodiscard]] std::vector<BenchCase> certify_bench_cases();

/// Run the certify suite (suite name "certify"; "custom" when filtered).
[[nodiscard]] BenchReport run_certify(const BenchOptions& options);

} // namespace mst
