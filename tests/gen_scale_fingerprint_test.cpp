// Golden fingerprints for the generator-scaled bench scenarios
// (gen300x/gen1000x, wide-shallow and narrow-deep): on every scaled SOC
// the memoized pipeline must produce a Solution byte-identical to the
// from-scratch run (no packing memo), and byte-identical at 1, 2, and 8
// threads — the same bar tests/golden_fingerprint_test.cpp and
// tests/parallel_optimizer_test.cpp set for the ITC'02 SOCs, extended to
// the scale the incremental packing core exists for. Solutions are
// compared via their full deterministic JSON rendering, so sites,
// channels, cycles, throughput, TAM plan, and the whole site curve all
// participate in the equality.
//
// Memoized and from-scratch runs share the greedy pass itself, so they
// cannot see a change in which group the pass picks. The pinned digests
// below can: they hold the FNV-1a 64 of the full solution JSON on the
// 3000-module shapes, at the paper's cell and on the long broadcast site
// curve, as the original linear best-fit scan produced them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "arch/channel_group.hpp"
#include "core/optimizer.hpp"
#include "report/solution_json.hpp"
#include "shm/segment.hpp"
#include "soc/generator.hpp"

namespace mst {
namespace {

struct ScaledCase {
    const char* name;
    int modules;
    ScaledShape shape;
};

class GenScaleFingerprint : public ::testing::TestWithParam<ScaledCase> {};

TEST_P(GenScaleFingerprint, MemoizedPipelineMatchesFromScratchAtAnyThreadCount)
{
    const ScaledCase& scaled = GetParam();
    const Soc soc =
        generate_soc(scaled_benchmark_config(scaled.name, scaled.modules, scaled.shape));
    const SocTimeTables tables(soc);
    TestCell cell; // 512 channels x 7M vectors, the paper's cell

    OptimizeOptions from_scratch;
    from_scratch.memoize = false;
    from_scratch.threads = 1;
    const Solution seed = optimize_multi_site(tables, cell, from_scratch);
    const std::string seed_json = solution_to_json(seed);

    OptimizeOptions memoized;
    for (const int threads : {1, 2, 8}) {
        memoized.threads = threads;
        const Solution fast = optimize_multi_site(tables, cell, memoized);
        EXPECT_EQ(solution_to_json(fast), seed_json)
            << scaled.name << " at " << threads << " threads";
        // Memoization only ever removes greedy work; the schedule itself
        // is thread-count independent, so the counters cannot vary with
        // `threads` either.
        EXPECT_EQ(fast.stats.packing.pack_calls, seed.stats.packing.pack_calls);
        EXPECT_LE(fast.stats.packing.greedy_passes, seed.stats.packing.greedy_passes);
    }
    EXPECT_EQ(seed.stats.packing.pack_cache_hits, 0);
}

INSTANTIATE_TEST_SUITE_P(ScaledSocs, GenScaleFingerprint,
                         ::testing::Values(ScaledCase{"gen300x-wide", 3000,
                                                      ScaledShape::wide_shallow},
                                           ScaledCase{"gen300x-deep", 3000,
                                                      ScaledShape::narrow_deep},
                                           ScaledCase{"gen1000x-wide", 10000,
                                                      ScaledShape::wide_shallow},
                                           ScaledCase{"gen1000x-deep", 10000,
                                                      ScaledShape::narrow_deep}),
                         [](const ::testing::TestParamInfo<ScaledCase>& info) {
                             std::string name = info.param.name;
                             for (char& c : name) {
                                 if (c == '-') {
                                     c = '_';
                                 }
                             }
                             return name;
                         });

struct PinnedCase {
    const char* name;
    ScaledShape shape;
    ChannelCount channels;
    CycleCount depth;
    BroadcastMode broadcast;
    std::uint64_t digest;
};

TEST(GenScaleFingerprint, SolutionDigestsArePinned)
{
    const PinnedCase cases[] = {
        {"gen300x-deep", ScaledShape::narrow_deep, 512, 7 * mebi, BroadcastMode::none,
         0x953e516dae76cfc7ULL},
        {"gen300x-deep", ScaledShape::narrow_deep, 1024, 32 * mebi, BroadcastMode::stimuli,
         0xc380b106ff5758aaULL},
        {"gen300x-wide", ScaledShape::wide_shallow, 512, 7 * mebi, BroadcastMode::none,
         0x4599fd7eb169ba0fULL},
        {"gen300x-wide", ScaledShape::wide_shallow, 1024, 32 * mebi, BroadcastMode::stimuli,
         0x1385d1583cc83ac4ULL},
    };
    for (const PinnedCase& pinned : cases) {
        const Soc soc = generate_soc(scaled_benchmark_config(pinned.name, 3000, pinned.shape));
        const SocTimeTables tables(soc);
        TestCell cell;
        cell.ate.channels = pinned.channels;
        cell.ate.vector_memory_depth = pinned.depth;
        OptimizeOptions options;
        options.broadcast = pinned.broadcast;
        const std::string json = solution_to_json(optimize_multi_site(tables, cell, options));
        EXPECT_EQ(shm::Segment::fnv1a(json.data(), json.size()), pinned.digest)
            << pinned.name << " at " << pinned.channels << " channels x " << pinned.depth
            << (pinned.broadcast == BroadcastMode::stimuli ? " broadcast" : " plain");
    }
}

} // namespace
} // namespace mst
