// End-to-end integration tests: the complete pipeline from benchmark
// data (embedded, generated, and file round-tripped) through the
// two-step optimizer, checked against the paper's reported operating
// points and claims with tolerances that absorb the data reconstruction.
//
// Figure, table and section numbers cite the paper, arXiv 0710.4687
// (linked from PAPERS.md). Where the measured value departs from the
// paper, the test pins what this repository measures and cites
// docs/divergences.md, which explains the gap.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "ate/cost.hpp"
#include "baseline/bin_packing.hpp"
#include "baseline/lower_bound.hpp"
#include "common/format.hpp"
#include "core/optimizer.hpp"
#include "core/step1.hpp"
#include "soc/parser.hpp"
#include "soc/profiles.hpp"
#include "soc/writer.hpp"

namespace mst {
namespace {

TestCell paper_cell()
{
    TestCell cell; // 512 channels x 7M vectors, 5 MHz, 0.5 s, 1 ms
    return cell;
}

/// Optimal throughput D_th of `soc` on the paper's cell with the ATE
/// resized to `channels` x `depth`.
double throughput_at(const Soc& soc, ChannelCount channels, CycleCount depth)
{
    TestCell cell = paper_cell();
    cell.ate.channels = channels;
    cell.ate.vector_memory_depth = depth;
    return optimize_multi_site(soc, cell).best_throughput();
}

TEST(Integration, Pnx8550NoBroadcastMatchesPaperOperatingPoint)
{
    // Paper Section 7 / Figure 5 (no stimuli broadcast): n_opt = n_max,
    // t_m ~ 1.4 s, D_th ~ 1.3e4 devices/hour.
    const Solution solution = optimize_multi_site(make_benchmark_soc("pnx8550"), paper_cell());
    EXPECT_EQ(solution.channels_step1, 72);
    EXPECT_EQ(solution.max_sites_step1, 7);
    EXPECT_EQ(solution.sites, 7);
    EXPECT_NEAR(solution.manufacturing_time, 1.45, 0.10);
    EXPECT_NEAR(solution.best_throughput(), 1.3e4, 0.15e4);
}

TEST(Integration, Pnx8550BroadcastRoughlyDoublesThroughput)
{
    // Paper Figure 5: the broadcast optimum is ~2.4e4 devices/hour.
    OptimizeOptions options;
    options.broadcast = BroadcastMode::stimuli;
    const Solution solution =
        optimize_multi_site(make_benchmark_soc("pnx8550"), paper_cell(), options);
    EXPECT_GE(solution.max_sites_step1, 12);
    EXPECT_NEAR(solution.best_throughput(), 2.4e4, 0.3e4);
}

TEST(Integration, Pnx8550Step2BeatsStep1WhenSitesAreCapped)
{
    // Paper Figure 5's punchline: if equipment limits the multi-site to
    // n = 8 (broadcast case), Steps 1+2 beat Step 1 only by ~34%. This
    // repository measures +35%, nearly all of it from Step 2's re-pack
    // fallback (docs/divergences.md).
    const Soc soc = make_benchmark_soc("pnx8550");
    OptimizeOptions options;
    options.broadcast = BroadcastMode::stimuli;
    const Solution solution = optimize_multi_site(soc, paper_cell(), options);

    const SiteCount cap = 8;
    double step2_at_cap = 0.0;
    for (const SitePoint& point : solution.site_curve) {
        if (point.sites == cap) {
            step2_at_cap = point.devices_per_hour;
        }
    }
    ASSERT_GT(step2_at_cap, 0.0);

    // Step-1-only at the cap: same architecture as Step 1, throughput
    // scaled by n = 8.
    OptimizeOptions step1_options = options;
    step1_options.step1_only = true;
    const Solution step1 = optimize_multi_site(soc, paper_cell(), step1_options);
    ThroughputInputs inputs;
    inputs.sites = cap;
    inputs.manufacturing_test_time = step1.manufacturing_time;
    inputs.contacted_terminals_per_soc = step1.channels_per_site + default_control_pads;
    const ThroughputResult at_cap =
        evaluate_throughput(inputs, paper_cell().prober, options.yields);

    EXPECT_NEAR(step2_at_cap / at_cap.devices_per_hour - 1.0, 0.34, 0.05);
}

TEST(Integration, D695FullTable1RowAt48K)
{
    // Paper Table 1, d695 @ 48K on a 256-channel ATE with broadcast:
    // k = 28, n_max = 17 (we tolerate one wire of reconstruction error).
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 48 * kibi;
    OptimizeOptions options;
    options.broadcast = BroadcastMode::stimuli;
    options.step1_only = true;
    const Solution solution = optimize_multi_site(make_benchmark_soc("d695"), cell, options);
    EXPECT_GE(solution.channels_step1, 26);
    EXPECT_LE(solution.channels_step1, 30);
    EXPECT_GE(solution.max_sites_step1, 16);
    EXPECT_LE(solution.max_sites_step1, 18);
}

TEST(Integration, Table1Step1NeverLosesToBinPacking)
{
    // Paper Table 1 (stimuli broadcast): on every row, Step 1 needs no
    // more channels than the rectangle bin-packing baseline [7], hence
    // reaches at least its multi-site, and never undercuts the
    // theoretical channel lower bound.
    struct SocRows {
        const char* soc;
        ChannelCount ate_channels;
        std::vector<std::string> depths;
    };
    const std::vector<SocRows> table1 = {
        {"d695", 256,
         {"48K", "56K", "64K", "72K", "80K", "88K", "96K", "104K", "112K", "120K", "128K"}},
        {"p22810", 512,
         {"384K", "448K", "512K", "576K", "640K", "704K", "768K", "832K", "896K", "960K",
          "1M"}},
        {"p34392", 512,
         {"768K", "896K", "1.000M", "1.128M", "1.256M", "1.384M", "1.512M", "1.640M",
          "1.768M", "1.896M", "2.000M"}},
        {"p93791", 512,
         {"1.000M", "1.256M", "1.512M", "1.768M", "2.000M", "2.256M", "2.512M", "2.768M",
          "3.000M", "3.256M", "3.512M"}},
    };
    OptimizeOptions options;
    options.broadcast = BroadcastMode::stimuli;
    int rows = 0;
    for (const SocRows& soc_rows : table1) {
        const Soc soc = make_benchmark_soc(soc_rows.soc);
        const SocTimeTables tables(soc);
        for (const std::string& depth_text : soc_rows.depths) {
            AteSpec ate;
            ate.channels = soc_rows.ate_channels;
            ate.vector_memory_depth = parse_depth(depth_text);
            const std::optional<ChannelCount> lb =
                lower_bound_channels(tables, ate.vector_memory_depth);
            const BaselineResult bin_packing =
                pack_rectangles(tables, ate, BroadcastMode::stimuli);
            const Step1Result us = run_step1(tables, ate, options);
            const std::string row = std::string(soc_rows.soc) + " @ " + depth_text;
            EXPECT_GE(us.max_sites, bin_packing.max_sites) << row;
            EXPECT_LE(us.channels, bin_packing.channels) << row;
            EXPECT_GE(us.channels, lb.value_or(0)) << row;
            ++rows;
        }
    }
    EXPECT_EQ(rows, 44);
}

TEST(Integration, Pnx8550DoublingChannelsDoublesThroughput)
{
    // Paper Figure 6(a): D_th grows linearly with the ATE channel count;
    // 512 -> 1024 channels at 7M multiplies it by ~2.0.
    const Soc soc = make_benchmark_soc("pnx8550");
    EXPECT_NEAR(throughput_at(soc, 1024, 7 * mebi) / throughput_at(soc, 512, 7 * mebi), 2.0,
                0.05);
}

TEST(Integration, Pnx8550DoublingDepthIsSubLinear)
{
    // Paper Figure 6(b): D_th grows sub-linearly with the vector memory
    // depth; the paper reads ~1.27 for 7M -> 14M at 512 channels. This
    // repository measures 1.146 on its synthetic PNX8550 (see
    // docs/divergences.md, "Figure 6(b) and Section 7").
    const Soc soc = make_benchmark_soc("pnx8550");
    EXPECT_NEAR(throughput_at(soc, 512, 14 * mebi) / throughput_at(soc, 512, 7 * mebi), 1.15,
                0.05);
}

TEST(Integration, Pnx8550ExtraChannelsBeatExtraMemoryAtEqualCost)
{
    // Paper Section 7: the price of doubling all 512 channels' memory
    // (7M -> 14M, $48k) buys 96 extra channels instead. The paper finds
    // memory the better buy (+27% against +18%). This repository measures
    // +14% for memory and +18% for channels, so the verdict flips (see
    // docs/divergences.md, "Figure 6(b) and Section 7").
    const Soc soc = make_benchmark_soc("pnx8550");
    const AteCostModel prices;
    const ChannelCount extra_channels =
        prices.channels_for_budget(prices.memory_doubling(paper_cell().ate));
    EXPECT_GT(throughput_at(soc, 512 + extra_channels, 7 * mebi),
              throughput_at(soc, 512, 14 * mebi));
}

TEST(Integration, FileRoundTripPreservesOptimizationResult)
{
    const Soc original = make_benchmark_soc("p22810");
    const std::string path = testing::TempDir() + "/mst_integration_p22810.soc";
    save_soc_file(path, original);
    const Soc loaded = load_soc_file(path);
    std::remove(path.c_str());

    TestCell cell;
    cell.ate.channels = 512;
    cell.ate.vector_memory_depth = 512 * kibi;
    const Solution a = optimize_multi_site(original, cell);
    const Solution b = optimize_multi_site(loaded, cell);
    EXPECT_EQ(a.channels_per_site, b.channels_per_site);
    EXPECT_EQ(a.sites, b.sites);
    EXPECT_EQ(a.test_cycles, b.test_cycles);
}

TEST(Integration, DeeperMemoryNeverHurtsThroughput)
{
    // Fig 6(b)'s monotone backbone on the real optimizer.
    const Soc soc = make_benchmark_soc("d695");
    double previous = 0.0;
    for (CycleCount depth = 48 * kibi; depth <= 96 * kibi; depth += 16 * kibi) {
        TestCell cell;
        cell.ate.channels = 256;
        cell.ate.vector_memory_depth = depth;
        const Solution solution = optimize_multi_site(soc, cell);
        EXPECT_GE(solution.best_throughput(), previous) << "depth=" << depth;
        previous = solution.best_throughput();
    }
}

TEST(Integration, MoreChannelsNeverHurtThroughput)
{
    // Fig 6(a)'s monotone backbone.
    const Soc soc = make_benchmark_soc("d695");
    double previous = 0.0;
    for (ChannelCount channels = 128; channels <= 512; channels += 128) {
        TestCell cell;
        cell.ate.channels = channels;
        cell.ate.vector_memory_depth = 64 * kibi;
        const Solution solution = optimize_multi_site(soc, cell);
        EXPECT_GE(solution.best_throughput(), previous) << "channels=" << channels;
        previous = solution.best_throughput();
    }
}

} // namespace
} // namespace mst
