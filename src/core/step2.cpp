#include "core/step2.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/executor.hpp"

namespace mst {

namespace {

/// What the throughput model needs to know about one site point's
/// architecture. Snapshotting the two scalars instead of the whole
/// Architecture keeps the per-point bookkeeping allocation-free along
/// curves with hundreds of points.
struct PointShape {
    ChannelCount channels = 0;
    CycleCount test_cycles = 0;
};

ThroughputResult evaluate_shape(SiteCount sites,
                                const PointShape& shape,
                                const TestCell& cell,
                                const OptimizeOptions& options)
{
    ThroughputInputs inputs;
    inputs.sites = sites;
    inputs.manufacturing_test_time = cell.ate.seconds_for(shape.test_cycles);
    inputs.contacted_terminals_per_soc = shape.channels + options.control_pads;
    return evaluate_throughput(inputs, cell.prober, options.yields, options.abort);
}

SitePoint make_point(SiteCount sites, const PointShape& shape, const TestCell& cell,
                     const ThroughputResult& result, RetestPolicy retest)
{
    SitePoint point;
    point.sites = sites;
    point.channels_per_site = shape.channels;
    point.test_cycles = shape.test_cycles;
    point.manufacturing_time = cell.ate.seconds_for(shape.test_cycles);
    point.devices_per_hour = result.devices_per_hour;
    point.unique_devices_per_hour = result.unique_devices_per_hour;
    point.figure_of_merit = figure_of_merit(result, retest);
    return point;
}

} // namespace

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
/// feasible virtual depth can. The candidate depths are scanned bottom-up
/// and the first packing that beats `beat_cycles` wins.
std::optional<Architecture> repack_for_budget(PackEngine& engine,
                                              CycleCount depth,
                                              WireCount wire_budget,
                                              CycleCount beat_cycles)
{
    for (const CycleCount candidate :
         repack_candidates(engine.tables(), depth, wire_budget, beat_cycles)) {
        std::optional<Architecture> packed = engine.pack_within(candidate, wire_budget);
        if (packed && packed->test_cycles() < beat_cycles) {
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

    const auto count = static_cast<std::size_t>(step1.max_sites);
    std::vector<SiteCount> sites(count);
    std::vector<PointShape> shapes(count);
    // The incumbent mutates rarely (only when the budget boundary frees
    // wires or a re-pack wins); snapshots record it exactly at those
    // points so the winner's architecture can be recovered without
    // copying it once per curve point.
    std::vector<Architecture> snapshots;
    std::vector<std::size_t> snapshot_from;

    // `incumbent` carries the best architecture found so far down the
    // linear search; the per-site budget only grows as n shrinks, so the
    // incumbent always fits and the test time is monotone along the
    // curve. The chain is inherently sequential: each n's budget scan
    // starts from the previous incumbent.
    Architecture incumbent = step1.architecture;
    for (std::size_t i = 0; i < count; ++i) {
        const SiteCount n = step1.max_sites - static_cast<SiteCount>(i);
        sites[i] = n;
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
        if (snapshots.empty() || repacked || incumbent.total_wires() != wires_before) {
            snapshots.push_back(incumbent);
            snapshot_from.push_back(i);
        }
        shapes[i] = {incumbent.channels(), incumbent.test_cycles()};
    }

    // The throughput model is independent per site point once the
    // shapes are fixed; evaluate the whole curve concurrently. Each
    // point is a handful of closed-form evaluations, so the fan-out only
    // pays for long curves on a pool with real workers — gating it
    // changes wall time, never results (each slot is written once).
    Step2Result result{0, step1.architecture, {}, {}};
    result.curve.resize(count);
    std::vector<ThroughputResult> throughputs(count);
    const bool fan_out = count >= 256 && Executor::global().worker_count() >= 2;
    parallel_for_index(count, fan_out ? options.threads : 1, [&](std::size_t i) {
        throughputs[i] = evaluate_shape(sites[i], shapes[i], cell, options);
        result.curve[i] = make_point(sites[i], shapes[i], cell, throughputs[i], options.retest);
    });

    // Deterministic reduction in descending-n order: strict improvement
    // keeps the earlier (larger) n on ties, exactly like the sequential
    // scan.
    DevicesPerHour best = -1.0;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const DevicesPerHour merit = result.curve[i].figure_of_merit;
        if (merit > best) {
            best = merit;
            best_index = i;
            result.best_sites = sites[i];
            result.best_throughput = throughputs[i];
        }
    }
    // Recover the winning architecture: the last snapshot at or before
    // the winning point.
    std::size_t snapshot = 0;
    for (std::size_t s = 0; s < snapshot_from.size(); ++s) {
        if (snapshot_from[s] <= best_index) {
            snapshot = s;
        }
    }
    if (!snapshots.empty()) {
        result.best_architecture = std::move(snapshots[snapshot]);
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
