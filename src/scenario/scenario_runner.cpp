#include "scenario/scenario_runner.hpp"

#include <map>

#include "common/error.hpp"
#include "common/executor.hpp"
#include "core/optimizer.hpp"

namespace mst {

SharedTables build_shared_tables(const Soc& soc, int threads)
{
    SharedTables shared;
    try {
        shared.tables = std::make_unique<const SocTimeTables>(soc, TableBuild::fast, threads);
    } catch (const ValidationError& e) {
        shared.error_kind = SweepErrorKind::validation;
        shared.error = e.what();
    } catch (const std::exception& e) {
        shared.error = e.what();
    } catch (...) {
        shared.error = "unknown exception building wrapper time tables";
    }
    return shared;
}

ScenarioResult run_scenario(const Scenario& scenario, const SharedTables* tables)
{
    ScenarioResult result;
    try {
        if (tables == nullptr) {
            throw ValidationError("scenario '" + scenario.name + "' has no SOC");
        }
        if (tables->tables == nullptr) {
            // The shared table build failed; report its error here so the
            // per-scenario isolation guarantee holds for build errors too.
            result.error_kind = tables->error_kind;
            result.error = tables->error;
            return result;
        }
        result.solution = optimize_multi_site(*tables->tables, scenario.cell, scenario.options);
    } catch (const InfeasibleError& e) {
        result.error_kind = SweepErrorKind::infeasible;
        result.error = e.what();
    } catch (const ValidationError& e) {
        result.error_kind = SweepErrorKind::validation;
        result.error = e.what();
    } catch (const std::exception& e) {
        result.error_kind = SweepErrorKind::other;
        result.error = e.what();
    } catch (...) {
        // An exception escaping the scenario would abort every other one
        // once the fan-out rethrows it; capture it instead.
        result.error_kind = SweepErrorKind::other;
        result.error = "unknown exception";
    }
    return result;
}

std::vector<ScenarioResult> run_scenarios(const std::vector<Scenario>& scenarios, int threads)
{
    std::vector<ScenarioResult> results(scenarios.size());
    if (scenarios.empty()) {
        return results;
    }

    // One table set per distinct SOC, all built before the scenario
    // fan-out starts: the builds themselves fan out over the pool.
    std::vector<const Soc*> distinct;
    std::map<const Soc*, std::size_t> table_slot;
    for (const Scenario& scenario : scenarios) {
        const Soc* soc = scenario.soc.get();
        if (soc != nullptr && table_slot.emplace(soc, distinct.size()).second) {
            distinct.push_back(soc);
        }
    }
    std::vector<SharedTables> tables(distinct.size());

    const int fan_out = resolve_thread_count(threads, scenarios.size());
    parallel_for_index(distinct.size(), fan_out,
                       [&](std::size_t i) { tables[i] = build_shared_tables(*distinct[i]); });
    parallel_for_index(scenarios.size(), fan_out, [&](std::size_t i) {
        const Soc* soc = scenarios[i].soc.get();
        results[i] = run_scenario(scenarios[i],
                                  soc != nullptr ? &tables[table_slot.at(soc)] : nullptr);
    });
    return results;
}

} // namespace mst
