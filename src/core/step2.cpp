#include "core/step2.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mst {

SiteEvaluation evaluate_site_point(SiteCount sites,
                                  ChannelCount channels_per_site,
                                  CycleCount test_cycles,
                                  const TestCell& cell,
                                  const OptimizeOptions& options)
{
    ThroughputInputs inputs;
    inputs.sites = sites;
    inputs.manufacturing_test_time = cell.ate.seconds_for(test_cycles);
    inputs.contacted_terminals_per_soc = channels_per_site + options.control_pads;

    SiteEvaluation evaluation;
    evaluation.throughput =
        evaluate_throughput(inputs, cell.prober, options.yields, options.abort);
    SitePoint& point = evaluation.point;
    point.sites = sites;
    point.channels_per_site = channels_per_site;
    point.test_cycles = test_cycles;
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
PackEngine::Packed repack_for_budget(PackEngine& engine,
                                     CycleCount depth,
                                     WireCount wire_budget,
                                     CycleCount beat_cycles)
{
    for (const CycleCount candidate :
         repack_candidates(engine.tables(), depth, wire_budget, beat_cycles)) {
        if (PackEngine::Packed packed = engine.pack(candidate, wire_budget);
            packed.architecture) {
            return packed;
        }
    }
    return {};
}

} // namespace

void plan_step2(PackEngine& engine, const Step1Result& step1, const AteSpec& ate,
                DftPlan& plan)
{
    const OptimizeOptions& options = engine.options();
    if (step1.max_sites < 1) {
        throw ValidationError("Step 2 requires a feasible Step-1 result");
    }
    // `incumbent` carries the best architecture found so far down the
    // linear search; the per-site budget only grows as n shrinks, so the
    // incumbent always fits and the test time is monotone along the
    // curve. The plan records every change to it: each wire the
    // bottleneck gains, and each re-pack that replaces it.
    Architecture incumbent = step1.architecture;
    for (SiteCount n = step1.max_sites; n >= 1; --n) {
        // Redistribute the channels freed up by giving up sites: every
        // site may grow to the per-site budget. Wires are handed one at a
        // time to the group with the largest fill (the bottleneck).
        const WireCount budget =
            wires_from_channels(per_site_channel_budget(n, ate.channels, options.broadcast));
        while (incumbent.total_wires() < budget) {
            const std::optional<std::size_t> widened =
                incumbent.add_wire_to_bottleneck(budget - incumbent.total_wires());
            if (!widened) {
                break;
            }
            plan.widen(*widened);
        }
        // Wire-by-wire widening cannot move modules between groups, so a
        // from-scratch re-pack of the site at the full budget can still
        // convert channels into test time; keep it only if it wins.
        PackEngine::Packed repacked = repack_for_budget(engine, ate.vector_memory_depth, budget,
                                                        incumbent.test_cycles());
        if (repacked.architecture) {
            incumbent = std::move(*repacked.architecture);
            plan.repack(*repacked.answer, repacked.published);
        }
        plan.add_point(n, incumbent);
    }
}

Step2Score score_step2(const DftPlan& plan, const TestCell& cell, const OptimizeOptions& options)
{
    const std::vector<DftPlan::Step>& steps = plan.steps();
    assert(!steps.empty() && steps.front().sites == plan.max_sites());
    Step2Score score;
    score.curve.reserve(static_cast<std::size_t>(plan.max_sites()));
    DevicesPerHour best = -1.0;
    std::size_t step = 0;
    for (SiteCount n = plan.max_sites(); n >= 1; --n) {
        if (step + 1 < steps.size() && steps[step + 1].sites == n) {
            ++step;
        }
        const SiteEvaluation evaluation = evaluate_site_point(
            n, steps[step].channels_per_site, steps[step].test_cycles, cell, options);
        // Strict improvement keeps the larger n on ties.
        if (evaluation.point.figure_of_merit > best) {
            best = evaluation.point.figure_of_merit;
            score.best_sites = n;
            score.best_step = step;
            score.best_throughput = evaluation.throughput;
        }
        score.curve.push_back(evaluation.point);
    }
    return score;
}

Step2Result run_step2(PackEngine& engine, const Step1Result& step1, const TestCell& cell)
{
    cell.validate();
    DftPlan plan(step1.architecture, step1.max_sites);
    plan_step2(engine, step1, cell.ate, plan);
    Step2Score score = score_step2(plan, cell, engine.options());
    return {score.best_sites, plan.architecture_at(score.best_step, engine.tables()),
            score.best_throughput, std::move(score.curve)};
}

Step2Result run_step2(const Step1Result& step1,
                      const TestCell& cell,
                      const OptimizeOptions& options)
{
    PackEngine engine(step1.architecture.tables(), options);
    return run_step2(engine, step1, cell);
}

} // namespace mst
