// Figure 6 of the paper plus the Section-7 upgrade economics:
//  (a) throughput vs ATE channel count (512..1024, depth 7M): linear;
//  (b) throughput vs vector memory depth (5M..14M, 512 channels):
//      sub-linear;
//  ($) the cost comparison: doubling the vector memory of all 512
//      channels vs spending the same dollars on extra channels.
#include <benchmark/benchmark.h>

#include <iostream>

#include "ate/cost.hpp"
#include "common/format.hpp"
#include "core/optimizer.hpp"
#include "report/series.hpp"
#include "soc/profiles.hpp"

namespace {

using namespace mst;

double throughput_at(const Soc& soc, ChannelCount channels, CycleCount depth)
{
    TestCell cell;
    cell.ate.channels = channels;
    cell.ate.vector_memory_depth = depth;
    return optimize_multi_site(soc, cell).best_throughput();
}

void print_figure6(const Soc& soc)
{
    std::cout << "=== Figure 6(a): throughput vs ATE channels (PNX8550, depth 7M) ===\n\n";
    Series by_channels;
    by_channels.name = "pnx8550 D_th vs channels";
    by_channels.x_label = "ATE channels";
    by_channels.y_label = "D_th [devices/hour]";
    for (ChannelCount channels = 512; channels <= 1024; channels += 64) {
        by_channels.points.emplace_back(channels, throughput_at(soc, channels, 7 * mebi));
    }
    print_series(std::cout, by_channels);

    std::cout << "=== Figure 6(b): throughput vs vector memory depth (PNX8550, 512 ch) ===\n\n";
    Series by_depth;
    by_depth.name = "pnx8550 D_th vs depth";
    by_depth.x_label = "vector memory depth [M vectors]";
    by_depth.y_label = "D_th [devices/hour]";
    for (CycleCount depth_m = 5; depth_m <= 14; ++depth_m) {
        by_depth.points.emplace_back(static_cast<double>(depth_m),
                                     throughput_at(soc, 512, depth_m * mebi));
    }
    print_series(std::cout, by_depth);

    // Linear vs sub-linear check (the paper's textual claims).
    const double double_channels =
        by_channels.points.back().second / by_channels.points.front().second;
    const double double_depth = throughput_at(soc, 512, 14 * mebi) / by_depth.points[2].second;
    std::cout << "doubling channels (512 -> 1024) multiplies D_th by "
              << double_channels << " (paper: ~2.0, linear)\n";
    std::cout << "doubling depth (7M -> 14M) multiplies D_th by " << double_depth
              << " (paper: ~1.27, sub-linear)\n\n";

    // Section-7 economics.
    const AteCostModel prices;
    AteSpec base;
    const UsDollars memory_budget = prices.memory_doubling(base);
    const ChannelCount extra_channels = prices.channels_for_budget(memory_budget);
    const double base_throughput = throughput_at(soc, 512, 7 * mebi);
    const double with_memory = throughput_at(soc, 512, 14 * mebi);
    const double with_channels = throughput_at(soc, 512 + extra_channels, 7 * mebi);
    std::cout << "=== Section 7 economics: what does " << format_dollars(memory_budget)
              << " buy? ===\n\n";
    std::cout << "  double all memory to 14M: D_th " << format_throughput(base_throughput)
              << " -> " << format_throughput(with_memory) << "  (+"
              << static_cast<int>(100.0 * (with_memory / base_throughput - 1.0))
              << "%, paper: +27%)\n";
    std::cout << "  buy " << extra_channels << " channels instead:   D_th "
              << format_throughput(base_throughput) << " -> "
              << format_throughput(with_channels) << "  (+"
              << static_cast<int>(100.0 * (with_channels / base_throughput - 1.0))
              << "%, paper: +18%)\n";
    std::cout << "  measured winner at equal cost: "
              << (with_memory >= with_channels ? "memory depth (paper agrees)"
                                               : "channels (paper found memory: Figure 6 and "
                                                 "Section 7 of arXiv 0710.4687, see PAPERS.md)")
              << "\n\n";
}

void BM_ThroughputCurvePoint(benchmark::State& state)
{
    const Soc soc = make_benchmark_soc("pnx8550");
    const auto channels = static_cast<ChannelCount>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(throughput_at(soc, channels, 7 * mebi));
    }
}

} // namespace

BENCHMARK(BM_ThroughputCurvePoint)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv)
{
    print_figure6(mst::make_benchmark_soc("pnx8550"));
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
