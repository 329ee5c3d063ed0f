#include "core/step1.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mst {

namespace {

/// Candidate virtual-depth fractions of the Step-1 sweep: the plain
/// full-depth pass first, then 0.975 down to 0.55 in 0.025 steps. The
/// fractions derive from integer step counts (fraction = step / 40), so
/// floating-point accumulation can never skip or repeat a depth.
std::vector<double> sweep_fractions(bool budget_search)
{
    std::vector<double> fractions{1.0};
    if (budget_search) {
        for (int step = 39; step >= 22; --step) {
            fractions.push_back(0.025 * step);
        }
    }
    return fractions;
}

} // namespace

Step1Result run_step1(PackEngine& engine, const AteSpec& ate)
{
    ate.validate();
    const SocTimeTables& tables = engine.tables();
    const OptimizeOptions& options = engine.options();
    const CycleCount depth = ate.vector_memory_depth;
    const WireCount ate_wires = wires_from_channels(ate.channels);
    const Soc& soc = tables.soc();

    // Minimal width per module; infeasible if any module fits nowhere.
    WireCount widest = 1;
    for (int m = 0; m < tables.module_count(); ++m) {
        const std::optional<WireCount> width = tables.min_width_for(m, depth);
        if (!width) {
            throw InfeasibleError("module '" + soc.module(m).name() +
                                  "' does not fit the ATE vector memory at any width");
        }
        if (*width > ate_wires) {
            throw InfeasibleError("module '" + soc.module(m).name() +
                                  "' alone needs more channels than the ATE provides");
        }
        widest = std::max(widest, *width);
    }

    // Virtual-depth sweep: a packing whose fills respect a reduced depth
    // is also valid for the real one, and tighter depths often steer the
    // greedy to architectures with fewer wires. Fraction 1.0 is the plain
    // pass; the others only run under budget_search.
    std::vector<CycleCount> virtual_depths;
    for (const double fraction : sweep_fractions(options.budget_search)) {
        virtual_depths.push_back(
            static_cast<CycleCount>(static_cast<double>(depth) * fraction));
    }

    // Criterion 1 (minimize channels) has priority: find the smallest
    // wire budget from the theoretical lower bound upward at which any
    // sweep candidate packs. The ascent is linear on purpose: the
    // greedy offers no budget-monotonicity guarantee (its choices see
    // the budget through head_room), so a gallop/bisect over budgets
    // could skip the true minimum or miss a feasible packing entirely —
    // every budget below the winner must actually be probed. The scan
    // is budget-major, fraction-minor and stops at the first candidate
    // that packs. Without budget_search a single unconstrained probe
    // reproduces the raw greedy of the paper.
    const CycleCount total_min_area = tables.total_min_area();
    const auto area_bound = static_cast<WireCount>((total_min_area + depth - 1) / depth);
    const WireCount search_from =
        options.budget_search ? std::max(widest, area_bound) : ate_wires;

    std::optional<Architecture> packed;
    for (WireCount budget = search_from; budget <= ate_wires && !packed; ++budget) {
        for (const CycleCount virtual_depth : virtual_depths) {
            packed = engine.pack_within(virtual_depth, budget);
            if (packed) {
                break;
            }
        }
    }
    if (!packed) {
        throw InfeasibleError("SOC '" + soc.name() +
                              "' exceeds the ATE channel budget during Step 1");
    }
    // Compaction belongs to the search; the raw greedy keeps its groups.
    if (options.budget_search) {
        packed->compact(depth);
    }

    Step1Result result{std::move(*packed), 0, 0};
    result.architecture.validate(ate);
    result.channels = result.architecture.channels();
    result.max_sites = max_sites(result.channels, ate.channels, options.broadcast);
    if (result.max_sites < 1) {
        throw InfeasibleError("SOC '" + soc.name() + "' does not allow even single-site testing");
    }
    return result;
}

Step1Result run_step1(const SocTimeTables& tables,
                      const AteSpec& ate,
                      const OptimizeOptions& options)
{
    PackEngine engine(tables, options);
    return run_step1(engine, ate);
}

} // namespace mst
