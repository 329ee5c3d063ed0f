// ATE buying guide: given an SOC and an upgrade budget, should you buy
// more tester channels or deeper vector memory? Reproduces the
// Section-7 economics analysis as a reusable decision helper.
//
// The candidate upgrades are independent optimizations of the same SOC,
// so they form one ScenarioSpec (one SOC x four named cells) whose
// expansion runs as a batch (baseline + options A/B/C) instead of four
// back-to-back optimizer calls.
//
// Usage: ate_buying_guide [budget-usd]   (default: $48,000, the paper's
// cost of doubling a 512-channel tester's memory)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "ate/cost.hpp"
#include "common/format.hpp"
#include "report/table.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/scenario_spec.hpp"

namespace {

using namespace mst;

CellPoint upgrade_cell(const std::string& label, ChannelCount channels, CycleCount depth)
{
    CellPoint point;
    point.label = label;
    point.cell.ate.channels = channels;
    point.cell.ate.vector_memory_depth = depth;
    return point;
}

} // namespace

int main(int argc, char** argv)
{
    const UsDollars budget = (argc > 1) ? std::atof(argv[1]) : 48'000.0;
    const AteCostModel prices;

    const AteSpec base; // 512 channels x 7M

    // Option A: spend everything on channels.
    const ChannelCount extra = prices.channels_for_budget(budget);

    // Option B: spend on memory doublings (each doubling covers all
    // channels; repeat while the budget allows).
    CycleCount depth = base.vector_memory_depth;
    UsDollars remaining = budget;
    while (remaining >= prices.memory_doubling(base) && depth < 64 * mebi) {
        remaining -= prices.memory_doubling(base);
        depth *= 2;
    }

    // Option C: an even split.
    const ChannelCount half_extra = prices.channels_for_budget(budget / 2);
    CycleCount half_depth = base.vector_memory_depth;
    if (budget / 2 >= prices.memory_doubling(base)) {
        half_depth *= 2;
    }

    ScenarioSpec spec;
    spec.name = "ate-buying-guide";
    spec.socs.push_back(SocSource::by_spec("pnx8550"));
    spec.cells = {
        upgrade_cell("baseline", base.channels, base.vector_memory_depth),
        upgrade_cell("A: channels", base.channels + extra, base.vector_memory_depth),
        upgrade_cell("B: memory", base.channels, depth),
        upgrade_cell("C: split", base.channels + half_extra, half_depth),
    };
    spec.variants.push_back({"plain", {}});
    const std::vector<Scenario> scenarios = expand(spec);
    const std::vector<ScenarioResult> results = run_scenarios(scenarios);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
            std::cerr << scenarios[i].name << ": " << results[i].error << '\n';
            return 1;
        }
    }
    const double base_throughput = results[0].solution->best_throughput();

    std::cout << "upgrade budget: " << format_dollars(budget) << " (channel: "
              << format_dollars(prices.channel_cost) << " each; memory doubling: "
              << format_dollars(prices.memory_doubling_cost_per_channel) << "/channel)\n";
    std::cout << "baseline: " << base.channels << " channels x "
              << format_depth(base.vector_memory_depth) << " -> "
              << format_throughput(base_throughput) << " devices/hour\n\n";

    Table table({"option", "ATE", "D_th", "gain"});
    const auto gain = [base_throughput](double value) {
        char text[32];
        std::snprintf(text, sizeof text, "%+.1f%%", 100.0 * (value / base_throughput - 1.0));
        return std::string(text);
    };
    const auto throughput_of = [&results](std::size_t i) {
        return results[i].solution->best_throughput();
    };
    table.add_row({"A: channels", std::to_string(base.channels + extra) + " x " +
                                      format_depth(base.vector_memory_depth),
                   format_throughput(throughput_of(1)), gain(throughput_of(1))});
    table.add_row({"B: memory", std::to_string(base.channels) + " x " + format_depth(depth),
                   format_throughput(throughput_of(2)), gain(throughput_of(2))});
    table.add_row({"C: split", std::to_string(base.channels + half_extra) + " x " +
                                   format_depth(half_depth),
                   format_throughput(throughput_of(3)), gain(throughput_of(3))});
    std::cout << table << '\n';

    const double channels_throughput = throughput_of(1);
    const double memory_throughput = throughput_of(2);
    const double split_throughput = throughput_of(3);
    const double best = std::max({channels_throughput, memory_throughput, split_throughput});
    std::cout << "recommendation: option "
              << (best == channels_throughput ? 'A' : best == memory_throughput ? 'B' : 'C')
              << " for this SOC and budget.\n"
              << "(The paper found memory depth the better buy for its PNX8550 data;\n"
              << " the answer genuinely depends on the SOC's channel/depth staircase.)\n";
    return 0;
}
