#include "core/step2.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mst {

SiteEvaluation evaluate_site_point(SiteCount sites,
                                  const Architecture& architecture,
                                  const TestCell& cell,
                                  const OptimizeOptions& options)
{
    ThroughputInputs inputs;
    inputs.sites = sites;
    inputs.manufacturing_test_time = cell.ate.seconds_for(architecture.test_cycles());
    inputs.contacted_terminals_per_soc = architecture.channels() + options.control_pads;

    SiteEvaluation evaluation;
    evaluation.throughput =
        evaluate_throughput(inputs, cell.prober, options.yields, options.abort);
    SitePoint& point = evaluation.point;
    point.sites = sites;
    point.channels_per_site = architecture.channels();
    point.test_cycles = architecture.test_cycles();
    point.manufacturing_time = inputs.manufacturing_test_time;
    point.devices_per_hour = evaluation.throughput.devices_per_hour;
    point.unique_devices_per_hour = evaluation.throughput.unique_devices_per_hour;
    point.figure_of_merit = figure_of_merit(evaluation.throughput, options.retest);
    return evaluation;
}

std::vector<CycleCount> repack_candidates(const SocTimeTables& tables,
                                          CycleCount depth,
                                          WireCount wire_budget,
                                          CycleCount beat_cycles)
{
    const CycleCount total_min_area = tables.total_min_area();
    const double floor_fraction = static_cast<double>(total_min_area) /
                                  (static_cast<double>(wire_budget) * static_cast<double>(depth));
    // Snap the sweep start *up* to the 0.025 lattice. The scan walks
    // integer lattice multiples only; starting at the raw area-floor
    // fraction used to shift the whole grid off-lattice whenever the
    // floor bound, making the scanned depths (and the memo keys they
    // feed) drift by the floor's sub-lattice remainder.
    const auto first_step = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(std::ceil(floor_fraction / 0.025)));

    std::vector<CycleCount> depths;
    for (std::int64_t step = first_step;; ++step) {
        const double fraction = 0.025 * static_cast<double>(step);
        if (fraction > 1.0) {
            break;
        }
        const auto virtual_depth =
            static_cast<CycleCount>(static_cast<double>(depth) * fraction);
        if (virtual_depth < 1) {
            continue;
        }
        if (virtual_depth >= beat_cycles) {
            break; // only depths strictly better than the incumbent matter
        }
        depths.push_back(virtual_depth);
    }
    return depths;
}

namespace {

/// Re-pack fallback: when widening the bottleneck group cannot shorten
/// the test any further (its modules are width-saturated), rebuilding the
/// whole per-site architecture for the full wire budget at the smallest
/// feasible virtual depth can. The candidate depths, all below
/// `beat_cycles`, are scanned bottom-up and the first that packs wins.
std::optional<Architecture> repack_for_budget(PackEngine& engine,
                                              CycleCount depth,
                                              WireCount wire_budget,
                                              CycleCount beat_cycles)
{
    for (const CycleCount candidate :
         repack_candidates(engine.tables(), depth, wire_budget, beat_cycles)) {
        if (std::optional<Architecture> packed = engine.pack_within(candidate, wire_budget)) {
            return packed;
        }
    }
    return std::nullopt;
}

} // namespace

Step2Result run_step2(PackEngine& engine, const Step1Result& step1, const TestCell& cell)
{
    const OptimizeOptions& options = engine.options();
    cell.validate();
    if (step1.max_sites < 1) {
        throw ValidationError("Step 2 requires a feasible Step-1 result");
    }

    Step2Result result{0, step1.architecture, {}, {}};
    result.curve.reserve(static_cast<std::size_t>(step1.max_sites));
    DevicesPerHour best = -1.0;
    // `incumbent` carries the best architecture found so far down the
    // linear search; the per-site budget only grows as n shrinks, so the
    // incumbent always fits and the test time is monotone along the
    // curve. It mutates rarely (only when the budget boundary frees
    // wires or a re-pack wins), so the winner's copy is refreshed only
    // when a new best point finds it changed since the last copy.
    Architecture incumbent = step1.architecture;
    bool incumbent_changed = false;
    for (SiteCount n = step1.max_sites; n >= 1; --n) {
        // Redistribute the channels freed up by giving up sites: every
        // site may grow to the per-site budget. Wires are handed one at a
        // time to the group with the largest fill (the bottleneck).
        const WireCount budget =
            wires_from_channels(per_site_channel_budget(n, cell.ate.channels, options.broadcast));
        const WireCount wires_before = incumbent.total_wires();
        while (incumbent.total_wires() < budget &&
               incumbent.add_wire_to_bottleneck(budget - incumbent.total_wires())) {
        }
        // Wire-by-wire widening cannot move modules between groups, so a
        // from-scratch re-pack of the site at the full budget can still
        // convert channels into test time; keep it only if it wins.
        std::optional<Architecture> repacked =
            repack_for_budget(engine, cell.ate.vector_memory_depth, budget,
                              incumbent.test_cycles());
        if (repacked) {
            incumbent = std::move(*repacked);
        }
        if (repacked || incumbent.total_wires() != wires_before) {
            incumbent_changed = true;
        }

        const SiteEvaluation evaluation = evaluate_site_point(n, incumbent, cell, options);
        // Strict improvement keeps the larger n on ties.
        if (evaluation.point.figure_of_merit > best) {
            best = evaluation.point.figure_of_merit;
            result.best_sites = n;
            result.best_throughput = evaluation.throughput;
            if (incumbent_changed) {
                result.best_architecture = incumbent;
                incumbent_changed = false;
            }
        }
        result.curve.push_back(evaluation.point);
    }
    return result;
}

Step2Result run_step2(const Step1Result& step1,
                      const TestCell& cell,
                      const OptimizeOptions& options)
{
    PackEngine engine(step1.architecture.tables(), options);
    return run_step2(engine, step1, cell);
}

} // namespace mst
