// Solution of the two-step optimization: the designed test
// infrastructure plus the throughput numbers of Section 4.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/architecture.hpp"
#include "ate/ate.hpp"
#include "common/types.hpp"
#include "core/pack_stats.hpp"
#include "report/module_names.hpp"
#include "throughput/model.hpp"
#include "wrapper/erpct.hpp"

namespace mst {

/// Work counters of one optimization run, for the perf harness: the
/// run's logical work, the same whatever earlier runs over the table set
/// left in its pack memo (see core/pack_stats.hpp). Not part of the
/// solution JSON (cache hit counts legitimately differ between memoized
/// and from-scratch runs that produce identical solutions).
struct OptimizerStats {
    PackStats packing;            ///< Step-1/Step-2 packing work
    std::int64_t site_points = 0; ///< Step-2 site curve points evaluated
    /// Resolved concurrency cap of the run's table build and exact
    /// solver waves (OptimizeOptions::threads, with <= 0 resolved to the
    /// shared executor's width); the packing scans and the site curve
    /// run sequentially. Purely informational: results and the other
    /// counters do not depend on it.
    int threads = 0;
};

/// Snapshot of one channel group, detached from the internal tables so a
/// Solution owns its data. Members are SOC module indices, in member
/// order; Solution::module_name() gives the name the reports print.
/// The group's channels are channels_from_wires(wires).
struct GroupSummary {
    WireCount wires = 0;
    CycleCount fill = 0;
    std::vector<int> module_indices;
};

/// Outcome of the optional exact branch-and-bound pass over the Step-1
/// question (minimum wires within the ATE memory depth), seeded from
/// the greedy architecture. `wires <= greedy_wires` always; when
/// `certified` the gap is a proven optimality gap, otherwise it is only
/// the best the node budget allowed.
struct ExactSummary {
    WireCount wires = 0;        ///< best exact-search wires
    WireCount greedy_wires = 0; ///< Step-1 wires it was seeded with
    WireCount gap = 0;          ///< greedy_wires - wires
    std::int64_t nodes_explored = 0;
    bool certified = false;     ///< search exhausted the pruned tree
    std::vector<std::vector<int>> groups; ///< module indices per exact group
};

/// One point of the sites -> throughput curve (the x-axis of Figure 5).
struct SitePoint {
    SiteCount sites = 0;
    ChannelCount channels_per_site = 0;
    CycleCount test_cycles = 0;
    Seconds manufacturing_time = 0;
    DevicesPerHour devices_per_hour = 0;
    DevicesPerHour unique_devices_per_hour = 0;
    DevicesPerHour figure_of_merit = 0;
};

/// Result of optimize_multi_site(): the optimal site count, the per-site
/// test architecture, the E-RPCT wrapper parameters, and the full search
/// trace for plotting.
struct Solution {
    std::string soc_name;

    // Optimal operating point.
    SiteCount sites = 0;                 ///< n_opt
    ChannelCount channels_per_site = 0;  ///< k at n_opt
    CycleCount test_cycles = 0;          ///< SOC test length at n_opt
    Seconds manufacturing_time = 0;      ///< t_m at n_opt
    ThroughputResult throughput;         ///< model outputs at n_opt
    ErpctSpec erpct;                     ///< chip-level wrapper at n_opt
    std::vector<GroupSummary> groups;    ///< per-site TAM architecture at n_opt

    // Step-1 diagnostics.
    ChannelCount channels_step1 = 0;     ///< minimal k found by Step 1
    SiteCount max_sites_step1 = 0;       ///< n_max for that k

    // Full linear-search trace of Step 2 (n = n_max .. 1).
    std::vector<SitePoint> site_curve;

    // Exact certification of Step 1 (set only with OptimizeOptions::exact).
    std::optional<ExactSummary> exact;

    // Search-effort counters (see OptimizerStats).
    OptimizerStats stats;

    /// The SOC's module names by module index, raw and JSON-quoted,
    /// shared with the table set the solution was computed over
    /// (SocTimeTables::module_names()): the writer copies each member's
    /// quoted entry instead of escaping its name per solve.
    std::shared_ptr<const ModuleNames> module_names;

    /// Name of SOC module `module_index`, as the reports print it.
    [[nodiscard]] const std::string& module_name(int module_index) const
    {
        return module_names->name(module_index);
    }

    /// Devices/hour (or unique devices/hour under the re-test policy)
    /// at the optimum.
    [[nodiscard]] DevicesPerHour best_throughput() const noexcept
    {
        return best_figure_of_merit_;
    }

    /// Set by the optimizer.
    DevicesPerHour best_figure_of_merit_ = 0;
};

/// Cross-check a solution against the problem constraints (Section 5:
/// n*k <= K [or the broadcast variant], fill <= D, every module wrapped).
/// Coverage is checked by module index, one counter per SOC module: every
/// group entry's index must be in range and every module must sit in
/// exactly one group. The names table must be present, one name per SOC
/// module. Throws ValidationError on violation.
void validate_solution(const Solution& solution, const Soc& soc, const AteSpec& ate,
                       BroadcastMode broadcast);

} // namespace mst
