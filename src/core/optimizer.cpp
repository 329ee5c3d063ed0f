#include "core/optimizer.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/executor.hpp"
#include "core/step1.hpp"
#include "core/step2.hpp"
#include "exact/branch_bound.hpp"

namespace mst {

namespace {

/// Certify the Step-1 architecture with the exact solver: same depth
/// constraint, greedy partition as the initial incumbent. Runs after
/// Step 1 so the greedy pipeline (and its fingerprints) is untouched;
/// the outcome is reported alongside, not substituted into Step 2.
ExactSummary certify_step1(const SocTimeTables& tables, const AteSpec& ate,
                           const Architecture& step1, const OptimizeOptions& options)
{
    ExactOptions exact_options;
    exact_options.threads = options.threads;
    if (options.exact_budget_ms > 0) {
        exact_options.node_limit = options.exact_budget_ms * exact_nodes_per_ms;
    }
    for (const ChannelGroup& group : step1.groups()) {
        exact_options.seed.push_back(group.module_indices());
    }
    ExactResult exact = exact_search(tables, ate.vector_memory_depth, exact_options);

    ExactSummary summary;
    summary.wires = exact.wires;
    summary.greedy_wires = step1.total_wires();
    summary.gap = summary.greedy_wires - exact.wires;
    summary.nodes_explored = exact.nodes_explored;
    summary.certified = exact.certified;
    summary.groups = std::move(exact.groups);
    return summary;
}

/// The search of one solve: Step 1, then Step 2's walk unless
/// step1_only, with the work the engine counted.
DftPlan search(PackEngine& engine, const AteSpec& ate)
{
    const Step1Result step1 = run_step1(engine, ate);
    DftPlan plan(step1.architecture, step1.max_sites);
    if (!engine.options().step1_only) {
        plan_step2(engine, step1, ate, plan);
    }
    plan.set_stats(engine.stats());
    return plan;
}

} // namespace

Solution optimize_multi_site(const SocTimeTables& tables,
                             const TestCell& cell,
                             const OptimizeOptions& options)
{
    const Soc& soc = tables.soc();
    cell.validate();

    // Plan: the table set's plan of this cell shape, or a fresh search.
    // A fresh plan is published when every answer it points at is; the
    // engine outlives the solve's use of an unpublished one.
    PackMemo* memo = options.memoize ? &tables.pack_memo() : nullptr;
    const PlanKey key{cell.ate.vector_memory_depth, cell.ate.channels, options.broadcast,
                      options.budget_search, options.step1_only};
    const DftPlan* plan = memo != nullptr ? memo->find(key) : nullptr;
    std::optional<PackEngine> engine;
    std::optional<DftPlan> searched;
    if (plan == nullptr) {
        engine.emplace(tables, options);
        searched.emplace(search(*engine, cell.ate));
        if (memo != nullptr && searched->publishable()) {
            plan = memo->publish(key, std::move(*searched));
        }
        if (plan == nullptr) {
            plan = &*searched;
        }
    }

    // Score every site point (Section 4), then materialize the winner.
    Solution solution;
    solution.soc_name = soc.name();
    solution.channels_step1 = plan->step1_channels();
    solution.max_sites_step1 = plan->max_sites();
    std::size_t best_step = 0;
    if (options.step1_only) {
        solution.sites = plan->max_sites();
        solution.throughput = evaluate_site_point(plan->max_sites(), plan->step1_channels(),
                                                  plan->step1_cycles(), cell, options)
                                  .throughput;
    } else {
        Step2Score score = score_step2(*plan, cell, options);
        best_step = score.best_step;
        solution.sites = score.best_sites;
        solution.throughput = score.best_throughput;
        solution.site_curve = std::move(score.curve);
    }
    Architecture final_arch = options.step1_only ? plan->step1_architecture(tables)
                                                 : plan->architecture_at(best_step, tables);

    if (options.exact) {
        solution.exact =
            certify_step1(tables, cell.ate, plan->step1_architecture(tables), options);
    }

    solution.channels_per_site = final_arch.channels();
    solution.test_cycles = final_arch.test_cycles();
    solution.manufacturing_time = cell.ate.seconds_for(solution.test_cycles);
    // The architecture is spent: its member lists move into the summary.
    std::vector<ChannelGroup> groups = std::move(final_arch).release_groups();
    solution.groups.reserve(groups.size());
    for (ChannelGroup& group : groups) {
        solution.groups.push_back(
            {group.width(), group.fill(), std::move(group).release_module_indices()});
    }
    solution.module_names = tables.module_names();
    solution.erpct = design_erpct(soc, solution.channels_per_site,
                                  options.functional_pins > 0 ? options.functional_pins
                                                              : tables.estimated_functional_pins(),
                                  options.control_pads);
    solution.best_figure_of_merit_ = figure_of_merit(solution.throughput, options.retest);

    solution.stats.packing = plan->stats();
    solution.stats.site_points = static_cast<std::int64_t>(solution.site_curve.size());
    solution.stats.threads = options.threads > 0
                                 ? options.threads
                                 : Executor::global().worker_count() + 1;

    validate_solution(solution, soc, cell.ate, options.broadcast);
    return solution;
}

Solution optimize_multi_site(const Soc& soc, const TestCell& cell, const OptimizeOptions& options)
{
    cell.validate(); // fail fast: the table build below is the expensive part
    const SocTimeTables tables(soc, TableBuild::fast, options.threads);
    return optimize_multi_site(tables, cell, options);
}

} // namespace mst
