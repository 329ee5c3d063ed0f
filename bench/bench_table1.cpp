// Table 1 of the paper: ATE channels k and maximum multi-site n_max for
// the rectangle bin-packing baseline [7] versus the Step-1 algorithm,
// over four ITC'02 SOCs and eleven vector-memory depths each.
//
// Output columns per row:
//   depth | LB | k [7] | k Us | n [7] | n Us
// where LB is the theoretical channel lower bound of [7], "[7]" is our
// implementation of the rectangle bin-packing baseline, and "Us" is
// Step 1 (stimuli broadcast assumed, as in the paper's comparison).
// The published values are in the paper's own Table 1 (arXiv 0710.4687,
// linked from PAPERS.md).
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "arch/channel_group.hpp"
#include "baseline/bin_packing.hpp"
#include "baseline/lower_bound.hpp"
#include "common/format.hpp"
#include "core/step1.hpp"
#include "report/table.hpp"
#include "soc/profiles.hpp"

namespace {

using namespace mst;

struct SocCase {
    std::string name;
    ChannelCount ate_channels;
    std::vector<CycleCount> depths;
};

std::vector<CycleCount> depth_sweep(CycleCount from, CycleCount step, int count)
{
    std::vector<CycleCount> depths;
    for (int i = 0; i < count; ++i) {
        depths.push_back(from + i * step);
    }
    return depths;
}

std::vector<SocCase> table1_cases()
{
    return {
        {"d695", 256, depth_sweep(48 * kibi, 8 * kibi, 11)},
        {"p22810", 512, depth_sweep(384 * kibi, 64 * kibi, 11)},
        {"p34392", 512,
         {768 * kibi, 896 * kibi, parse_depth("1.000M"), parse_depth("1.128M"),
          parse_depth("1.256M"), parse_depth("1.384M"), parse_depth("1.512M"),
          parse_depth("1.640M"), parse_depth("1.768M"), parse_depth("1.896M"),
          parse_depth("2.000M")}},
        {"p93791", 512,
         {parse_depth("1.000M"), parse_depth("1.256M"), parse_depth("1.512M"),
          parse_depth("1.768M"), parse_depth("2.000M"), parse_depth("2.256M"),
          parse_depth("2.512M"), parse_depth("2.768M"), parse_depth("3.000M"),
          parse_depth("3.256M"), parse_depth("3.512M")}},
    };
}

void print_table1()
{
    std::cout << "=== Table 1: maximum multi-site, rectangle bin-packing [7] vs Step 1 "
                 "(stimuli broadcast) ===\n\n";
    for (const SocCase& soc_case : table1_cases()) {
        const Soc soc = make_benchmark_soc(soc_case.name);
        const SocTimeTables tables(soc);

        Table table({"depth", "LB k", "k [7]", "k Us", "n [7]", "n Us"});
        for (const CycleCount depth : soc_case.depths) {
            AteSpec ate;
            ate.channels = soc_case.ate_channels;
            ate.vector_memory_depth = depth;

            const auto lb = lower_bound_channels(tables, depth);
            const BaselineResult baseline =
                pack_rectangles(tables, ate, BroadcastMode::stimuli);

            OptimizeOptions options;
            options.broadcast = BroadcastMode::stimuli;
            const Step1Result step1 = run_step1(tables, ate, options);

            table.add_row({format_depth(depth), std::to_string(lb.value_or(0)),
                           std::to_string(baseline.channels), std::to_string(step1.channels),
                           std::to_string(baseline.max_sites), std::to_string(step1.max_sites)});
        }
        std::cout << "SOC " << soc_case.name << " (ATE: " << soc_case.ate_channels
                  << " channels)\n"
                  << table << '\n';
    }
}

/// Timing: Step 1 on each benchmark SOC at its smallest Table-1 depth.
void BM_Step1(benchmark::State& state, const std::string& name, ChannelCount channels,
              CycleCount depth)
{
    const Soc soc = make_benchmark_soc(name);
    const SocTimeTables tables(soc);
    AteSpec ate;
    ate.channels = channels;
    ate.vector_memory_depth = depth;
    OptimizeOptions options;
    options.broadcast = BroadcastMode::stimuli;
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_step1(tables, ate, options));
    }
}

/// Timing: the baseline packer under the same conditions.
void BM_Baseline(benchmark::State& state, const std::string& name, ChannelCount channels,
                 CycleCount depth)
{
    const Soc soc = make_benchmark_soc(name);
    const SocTimeTables tables(soc);
    AteSpec ate;
    ate.channels = channels;
    ate.vector_memory_depth = depth;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pack_rectangles(tables, ate, BroadcastMode::stimuli));
    }
}

} // namespace

BENCHMARK_CAPTURE(BM_Step1, d695, "d695", 256, 48 * mst::kibi);
BENCHMARK_CAPTURE(BM_Step1, p93791, "p93791", 512, mst::mebi);
BENCHMARK_CAPTURE(BM_Baseline, d695, "d695", 256, 48 * mst::kibi);
BENCHMARK_CAPTURE(BM_Baseline, p93791, "p93791", 512, mst::mebi);

int main(int argc, char** argv)
{
    print_table1();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
