// Thread-count determinism of the optimizer: OptimizeOptions::threads
// caps the table build's fan-out, and never changes what the sequential
// packing scans and the site curve compute. For every ITC'02 SOC, d695
// on a 512-point site curve, a generated 1000-module wide-shallow SOC,
// and both Step-1 modes, the full solution JSON — operating point, TAM
// plan, E-RPCT wrapper, the whole site curve — must be byte-identical
// at 1, 2, and 8 threads, and the work counters (pack calls, cache
// hits, greedy passes, profiles, prunes) must match too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "arch/channel_group.hpp"
#include "core/optimizer.hpp"
#include "report/solution_json.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"

namespace mst {
namespace {

/// The two Step-1 configurations: the default budget search, and the
/// paper's literal Fig. 4 greedy (OptimizeOptions::budget_search off).
const char* mode_name(bool budget_search)
{
    return budget_search ? "budget search" : "paper greedy";
}

/// The ITC'02 benchmark SOCs by name, d695 again on a long curve, plus
/// one generated 1000-module wide-shallow SOC.
Soc soc_named(const std::string& name)
{
    if (name == "gen100x-wide") {
        return generate_soc(scaled_benchmark_config(name, 1000, ScaledShape::wide_shallow));
    }
    if (name == "d695-long-curve") {
        return make_benchmark_soc("d695");
    }
    return make_benchmark_soc(name);
}

/// The paper's cell (512 channels x 7M vectors) for the ITC'02 SOCs. The
/// generated SOC fits width 1 at every virtual depth of that cell, so it
/// runs on 1024 x 256K instead: there minimal widths move between depths
/// and each depth profile seeded from a deeper one does real work. The
/// long-curve d695 runs on 1024 x 32M: 2 channels per site, so its site
/// curve has 512 points.
TestCell cell_for(const std::string& name)
{
    TestCell cell;
    if (name == "gen100x-wide") {
        cell.ate.channels = 1024;
        cell.ate.vector_memory_depth = 256 * kibi;
    }
    if (name == "d695-long-curve") {
        cell.ate.channels = 1024;
        cell.ate.vector_memory_depth = 32 * mebi;
    }
    return cell;
}

class ParallelOptimizer : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelOptimizer, SolutionJsonIsByteIdenticalAtAnyThreadCount)
{
    const Soc soc = soc_named(GetParam());
    const SocTimeTables tables(soc);
    const TestCell cell = cell_for(GetParam());

    for (const bool budget_search : {true, false}) {
        OptimizeOptions options;
        options.budget_search = budget_search;

        options.threads = 1;
        const Solution serial = optimize_multi_site(tables, cell, options);
        const std::string serial_json = solution_to_json(serial);
        if (std::string(GetParam()) == "d695-long-curve") {
            EXPECT_GE(serial.site_curve.size(), 256u) << mode_name(budget_search);
        }

        for (const int threads : {2, 8}) {
            options.threads = threads;
            const Solution parallel = optimize_multi_site(tables, cell, options);
            EXPECT_EQ(solution_to_json(parallel), serial_json)
                << GetParam() << " under " << mode_name(budget_search) << " at " << threads
                << " threads";

            // The scans are sequential, so the counters agree as well.
            EXPECT_EQ(parallel.stats.packing.pack_calls, serial.stats.packing.pack_calls);
            EXPECT_EQ(parallel.stats.packing.pack_cache_hits,
                      serial.stats.packing.pack_cache_hits);
            EXPECT_EQ(parallel.stats.packing.greedy_passes,
                      serial.stats.packing.greedy_passes);
            EXPECT_EQ(parallel.stats.packing.depth_profiles,
                      serial.stats.packing.depth_profiles);
            EXPECT_EQ(parallel.stats.packing.pruned_packs,
                      serial.stats.packing.pruned_packs);
            EXPECT_EQ(parallel.stats.site_points, serial.stats.site_points);
        }
    }
}

TEST(ParallelOptimizer, FromScratchModeIsThreadCountIndependentToo)
{
    const Soc soc = make_benchmark_soc("d695");
    const SocTimeTables tables(soc);
    TestCell cell;

    OptimizeOptions options;
    options.memoize = false;
    options.threads = 1;
    const std::string serial_json = solution_to_json(optimize_multi_site(tables, cell, options));
    options.threads = 8;
    EXPECT_EQ(solution_to_json(optimize_multi_site(tables, cell, options)), serial_json);
}

TEST(ParallelOptimizer, ThreadsKnobIsSurfacedInStats)
{
    const Soc soc = make_benchmark_soc("d695");
    const SocTimeTables tables(soc);
    TestCell cell;

    OptimizeOptions options;
    options.threads = 3;
    EXPECT_EQ(optimize_multi_site(tables, cell, options).stats.threads, 3);
    options.threads = 0; // executor-wide: resolved to pool width + caller
    EXPECT_GE(optimize_multi_site(tables, cell, options).stats.threads, 1);
}

INSTANTIATE_TEST_SUITE_P(BenchmarkSocs, ParallelOptimizer,
                         ::testing::Values("d695", "d695-long-curve", "p22810", "p34392",
                                           "p93791", "gen100x-wide"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

} // namespace
} // namespace mst
