// Sweep all shipped ITC'02 benchmark SOCs across a grid of testers and
// report the optimal multi-site configuration for each -- the kind of
// what-if table a test engineer builds when choosing a floor tester.
//
// The grid is one declarative ScenarioSpec (SOC sources x named cells x
// one broadcast variant); expand() produces the 16 scenarios in
// soc-major order and run_scenarios fans them out across a thread pool.
// Results come back in input order, so the report reads them off grid
// position.
#include <iostream>
#include <vector>

#include "common/format.hpp"
#include "report/table.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/scenario_spec.hpp"

int main()
{
    using namespace mst;

    struct TesterChoice {
        const char* name;
        ChannelCount channels;
        CycleCount depth;
    };
    const std::vector<TesterChoice> testers = {
        {"budget  (256 ch x 32M)", 256, 32 * mebi},
        {"midsize (512 ch x 8M)", 512, 8 * mebi},
        {"big-mem (512 ch x 32M)", 512, 32 * mebi},
        {"monster (1024 ch x 16M)", 1024, 16 * mebi},
    };
    const std::vector<std::string> soc_names = {"d695", "p22810", "p34392", "p93791"};

    ScenarioSpec spec;
    spec.name = "itc02-tester-sweep";
    for (const std::string& soc_name : soc_names) {
        spec.socs.push_back(SocSource::by_spec(soc_name));
    }
    for (const TesterChoice& tester : testers) {
        CellPoint cell;
        cell.label = tester.name;
        cell.cell.ate.channels = tester.channels;
        cell.cell.ate.vector_memory_depth = tester.depth;
        cell.cell.ate.test_clock_hz = 20e6; // modern 20 MHz scan clock
        spec.cells.push_back(cell);
    }
    OptionVariant broadcast;
    broadcast.label = "broadcast";
    broadcast.options.broadcast = BroadcastMode::stimuli;
    spec.variants.push_back(broadcast);

    const std::vector<ScenarioResult> results = run_scenarios(expand(spec));

    std::size_t slot = 0;
    for (const std::string& soc_name : soc_names) {
        std::cout << "=== " << soc_name << " ===\n";
        Table table({"tester", "k/site", "n_opt", "t_m", "D_th"});
        for (std::size_t t = 0; t < testers.size(); ++t, ++slot) {
            const ScenarioResult& result = results[slot];
            if (!result.ok()) {
                table.add_row({testers[t].name, "-", "-", "-", result.error});
                continue;
            }
            const Solution& solution = *result.solution;
            table.add_row({testers[t].name, std::to_string(solution.channels_per_site),
                           std::to_string(solution.sites),
                           format_seconds(solution.manufacturing_time),
                           format_throughput(solution.best_throughput())});
        }
        std::cout << table << '\n';
    }
    std::cout << "All four SOCs prefer deep memory over raw channel count once the\n"
                 "interface is narrow enough -- the paper's Section 7 message.\n";
    return 0;
}
