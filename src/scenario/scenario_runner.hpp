// The one per-scenario step of the scenario layer, and the thread-pool
// scenario runner built on it.
//
//   std::vector<ScenarioResult> results = run_scenarios(expand(spec), 8);
//
// Both scenario entry points execute a scenario the same way: find its SOC's
// wrapper time tables, then run_scenario(). run_scenarios() below
// serves `mst batch` and the examples; the sweep engine's shard loop
// (sweep.hpp) serves `mst sweep`. They share tables under one rule:
// one table set per distinct Soc object per process, built on first
// use. run_scenarios() builds every distinct SOC's set across the pool
// before its fan-out; the sweep loop builds a set when a shard first
// meets its SOC, so an inline sweep builds each SOC once and a forked
// worker once per SOC it meets. Building the tables dominates a
// scenario's wall time, so expand() resolving each SocSource to one
// shared Soc is what makes the sharing pay.
//
// run_scenarios() guarantees:
//   * results[i] always corresponds to scenarios[i], at any thread
//     count and scheduling,
//   * a scenario that fails (e.g. InfeasibleError: "this SOC does not
//     fit on that ATE") yields a typed error result; it never aborts
//     the other scenarios,
//   * with the same scenario list, results are identical at any thread
//     count (the optimizer is pure; the runner adds no shared state).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/channel_group.hpp"
#include "core/solution.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep_records.hpp"
#include "soc/soc.hpp"

namespace mst {

/// One SOC's shared wrapper time tables, or the error their build threw:
/// every scenario of that SOC then reports the build error.
struct SharedTables {
    std::unique_ptr<const SocTimeTables> tables; ///< null when the build failed
    SweepErrorKind error_kind = SweepErrorKind::other;
    std::string error;
};

/// Build `soc`'s tables with at most `threads` pool threads (<= 0: the
/// whole pool). A failed build (e.g. bad_alloc on a huge SOC) is
/// captured in the result instead of thrown.
[[nodiscard]] SharedTables build_shared_tables(const Soc& soc, int threads = 0);

/// Outcome of one scenario: either a Solution or a typed error.
struct ScenarioResult {
    std::optional<Solution> solution;
    SweepErrorKind error_kind = SweepErrorKind::other; ///< meaningful only when !ok()
    std::string error; ///< what() of the captured exception, if any

    [[nodiscard]] bool ok() const noexcept { return solution.has_value(); }
};

/// The per-scenario step: optimize `scenario` over `tables`, its SOC's
/// table set (null exactly when scenario.soc is null). Never throws: a
/// scenario without SOC is a validation error, and every exception the
/// optimizer raises becomes a typed error result.
[[nodiscard]] ScenarioResult run_scenario(const Scenario& scenario, const SharedTables* tables);

/// Run every scenario across `threads` pool threads (<= 0: hardware
/// concurrency); results[i] matches scenarios[i]. Never throws on
/// scenario failure (see ScenarioResult); propagates only scenario-
/// independent errors such as std::bad_alloc while setting up.
[[nodiscard]] std::vector<ScenarioResult> run_scenarios(const std::vector<Scenario>& scenarios,
                                                        int threads = 0);

} // namespace mst
