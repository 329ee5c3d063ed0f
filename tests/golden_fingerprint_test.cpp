// Golden fingerprint tests for the memoized Step-1/Step-2 pipeline: on
// every ITC'02 benchmark SOC, a generated 1000-module wide-shallow SOC,
// and both Step-1 modes, the fast path (WrapperTimeCalculator
// tables + PackEngine memo with seeded depth profiles) must
// produce a Solution byte-identical to the from-scratch seed pipeline
// (reference table build, no memoization). Solutions are compared via
// their full deterministic JSON rendering, so sites, channels, cycles,
// throughput, TAM plan, E-RPCT wrapper, and the whole site curve all
// participate in the equality.
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

/// The ITC'02 benchmark SOCs by name, plus one generated 1000-module
/// wide-shallow SOC.
Soc soc_named(const std::string& name)
{
    if (name == "gen100x-wide") {
        return generate_soc(scaled_benchmark_config(name, 1000, ScaledShape::wide_shallow));
    }
    return make_benchmark_soc(name);
}

/// The paper's cell (512 channels x 7M vectors) for the ITC'02 SOCs. The
/// generated SOC fits width 1 at every virtual depth of that cell, so it
/// runs on 1024 x 256K instead: there minimal widths move between depths
/// and each depth profile seeded from a deeper one does real work.
TestCell cell_for(const std::string& name)
{
    TestCell cell;
    if (name == "gen100x-wide") {
        cell.ate.channels = 1024;
        cell.ate.vector_memory_depth = 256 * kibi;
    }
    return cell;
}

class GoldenFingerprint : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenFingerprint, MemoizedPipelineMatchesFromScratchRun)
{
    const Soc soc = soc_named(GetParam());
    const SocTimeTables fast_tables(soc, TableBuild::fast);
    const SocTimeTables reference_tables(soc, TableBuild::reference);

    const TestCell cell = cell_for(GetParam());

    for (const bool budget_search : {true, false}) {
        OptimizeOptions memoized;
        memoized.budget_search = budget_search;
        memoized.memoize = true;

        OptimizeOptions from_scratch = memoized;
        from_scratch.memoize = false;

        const Solution fast = optimize_multi_site(fast_tables, cell, memoized);
        const Solution seed = optimize_multi_site(reference_tables, cell, from_scratch);

        EXPECT_EQ(solution_to_json(fast), solution_to_json(seed))
            << GetParam() << " under " << mode_name(budget_search);

        // The memoized run must not do more greedy work than the
        // from-scratch run; the cache only ever removes passes.
        EXPECT_EQ(fast.stats.packing.pack_calls, seed.stats.packing.pack_calls)
            << GetParam() << " under " << mode_name(budget_search);
        EXPECT_LE(fast.stats.packing.greedy_passes, seed.stats.packing.greedy_passes)
            << GetParam() << " under " << mode_name(budget_search);
        EXPECT_EQ(seed.stats.packing.pack_cache_hits, 0)
            << GetParam() << " under " << mode_name(budget_search);
    }
}

INSTANTIATE_TEST_SUITE_P(BenchmarkSocs, GoldenFingerprint,
                         ::testing::Values("d695", "p22810", "p34392", "p93791",
                                           "gen100x-wide"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

} // namespace
} // namespace mst
