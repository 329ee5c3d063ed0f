// Golden regression pins for optimize_multi_site() on the d695 benchmark
// SOC. The exact values were captured from the seed implementation (PR 1)
// so that future optimizer refactors cannot silently drift away from the
// paper's d695 behaviour: integer outputs (sites, channels) must match
// exactly, throughputs to a relative tolerance.
#include <gtest/gtest.h>

#include "core/optimizer.hpp"
#include "soc/d695.hpp"

namespace mst {
namespace {

constexpr double kRelTol = 1e-6;

TEST(GoldenD695, PaperDefaultCell512x7M)
{
    // The paper's default test cell: 512 channels x 7M vectors @ 5 MHz.
    // d695 is tiny against 7M vectors, so Step 1 collapses to a single
    // 1-wire TAM and Step 2 maxes out the channel budget at 256 sites.
    const Solution s = optimize_multi_site(make_d695(), TestCell{});
    EXPECT_EQ(s.soc_name, "d695");
    EXPECT_EQ(s.channels_step1, 2);
    EXPECT_EQ(s.max_sites_step1, 256);
    EXPECT_EQ(s.sites, 256);
    EXPECT_EQ(s.channels_per_site, 2);
    EXPECT_EQ(s.test_cycles, 659'700);
    EXPECT_NEAR(s.manufacturing_time, 0.13194, 0.13194 * kRelTol);
    EXPECT_NEAR(s.throughput.devices_per_hour, 1.45606e6, 1.45606e6 * 1e-5);
    ASSERT_EQ(s.groups.size(), 1u);
    EXPECT_EQ(s.groups[0].wires, 1);
    EXPECT_EQ(s.groups[0].fill, 659'700);
    EXPECT_EQ(s.groups[0].module_indices.size(), 10u);
}

TEST(GoldenD695, ConstrainedCell256x48K)
{
    // A memory-constrained cell (256 channels x 48K vectors) forces a
    // real multi-group architecture: 5 TAMs, 28 channels/site, 9 sites.
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 48 * kibi;
    const Solution s = optimize_multi_site(make_d695(), cell);
    EXPECT_EQ(s.channels_step1, 28);
    EXPECT_EQ(s.max_sites_step1, 9);
    EXPECT_EQ(s.sites, 9);
    EXPECT_EQ(s.channels_per_site, 28);
    EXPECT_EQ(s.test_cycles, 48'940);
    EXPECT_EQ(s.groups.size(), 5u);
    EXPECT_NEAR(s.throughput.devices_per_hour, 63'431.4, 63'431.4 * 1e-5);
}

TEST(GoldenD695, ConstrainedCellWithStimulusBroadcast)
{
    // Same cell with stimulus broadcast: identical per-site architecture,
    // but the shared stimulus channels nearly double the site count.
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 48 * kibi;
    OptimizeOptions options;
    options.broadcast = BroadcastMode::stimuli;
    const Solution s = optimize_multi_site(make_d695(), cell, options);
    EXPECT_EQ(s.channels_step1, 28);
    EXPECT_EQ(s.max_sites_step1, 17);
    EXPECT_EQ(s.sites, 17);
    EXPECT_EQ(s.channels_per_site, 28);
    EXPECT_EQ(s.test_cycles, 48'940);
    EXPECT_NEAR(s.throughput.devices_per_hour, 119'815.0, 119'815.0 * 1e-5);
}

} // namespace
} // namespace mst
