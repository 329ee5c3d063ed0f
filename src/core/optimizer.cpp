#include "core/optimizer.hpp"

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
                           const Step1Result& step1, const OptimizeOptions& options)
{
    ExactOptions exact_options;
    exact_options.threads = options.threads;
    if (options.exact_budget_ms > 0) {
        exact_options.node_limit = options.exact_budget_ms * exact_nodes_per_ms;
    }
    for (const ChannelGroup& group : step1.architecture.groups()) {
        exact_options.seed.push_back(group.module_indices());
    }
    ExactResult exact = exact_search(tables, ate.vector_memory_depth, exact_options);

    ExactSummary summary;
    summary.wires = exact.wires;
    summary.greedy_wires = step1.architecture.total_wires();
    summary.gap = summary.greedy_wires - exact.wires;
    summary.nodes_explored = exact.nodes_explored;
    summary.certified = exact.certified;
    summary.groups = std::move(exact.groups);
    return summary;
}

} // namespace

Solution optimize_multi_site(const SocTimeTables& tables,
                             const TestCell& cell,
                             const OptimizeOptions& options)
{
    const Soc& soc = tables.soc();
    cell.validate();
    PackEngine engine(tables, options);
    const Step1Result step1 = run_step1(engine, cell.ate);

    Solution solution;
    solution.soc_name = soc.name();
    solution.channels_step1 = step1.channels;
    solution.max_sites_step1 = step1.max_sites;

    const Architecture* final_arch = &step1.architecture;
    Step2Result step2{0, step1.architecture, {}, {}};
    if (options.step1_only) {
        solution.sites = step1.max_sites;
        solution.throughput =
            evaluate_site_point(step1.max_sites, step1.architecture, cell, options).throughput;
    } else {
        step2 = run_step2(engine, step1, cell);
        solution.sites = step2.best_sites;
        solution.throughput = step2.best_throughput;
        solution.site_curve = step2.curve;
        final_arch = &step2.best_architecture;
    }

    if (options.exact) {
        solution.exact = certify_step1(tables, cell.ate, step1, options);
    }

    solution.channels_per_site = final_arch->channels();
    solution.test_cycles = final_arch->test_cycles();
    solution.manufacturing_time = cell.ate.seconds_for(solution.test_cycles);
    solution.groups.reserve(final_arch->groups().size());
    for (const ChannelGroup& group : final_arch->groups()) {
        solution.groups.push_back({group.width(), channels_from_wires(group.width()),
                                   group.fill(), group.module_indices()});
    }
    solution.module_names = tables.module_names();
    solution.erpct = design_erpct(soc, solution.channels_per_site, options.functional_pins,
                                  options.control_pads);
    solution.best_figure_of_merit_ = figure_of_merit(solution.throughput, options.retest);

    solution.stats.packing = engine.stats();
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
