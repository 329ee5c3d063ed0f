// Unit tests for Architecture: aggregation, redistribution, compaction,
// invariant validation, and the multi-site channel formulas.
#include <gtest/gtest.h>

#include "arch/architecture.hpp"
#include "common/error.hpp"
#include "soc/soc.hpp"

namespace mst {
namespace {

Soc three_module_soc()
{
    // Module b's chains are splittable well beyond three wires, so
    // bottleneck widening has room to work with.
    return Soc("trio", {Module("a", 2, 2, 0, 10, {12, 8}),
                        Module("b", 4, 4, 0, 20, {15, 15, 10, 10, 8, 8}),
                        Module("c", 1, 1, 0, 5, {6})});
}

Architecture simple_arch(const SocTimeTables& tables)
{
    Architecture arch(tables);
    const std::size_t narrow = arch.add_group(2);
    arch.add_module(narrow, 0);
    arch.add_module(narrow, 2);
    arch.add_module(arch.add_group(3), 1);
    return arch;
}

TEST(Architecture, Aggregates)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    const Architecture arch = simple_arch(tables);
    EXPECT_EQ(arch.total_wires(), 5);
    EXPECT_EQ(arch.channels(), 10);
    EXPECT_EQ(arch.test_cycles(),
              std::max(arch.groups()[0].fill(), arch.groups()[1].fill()));
}

TEST(Architecture, FreeMemoryAccounting)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    const Architecture arch = simple_arch(tables);
    const CycleCount depth = 100'000;
    const CycleCount expected =
        depth * 5 - arch.groups()[0].fill() - arch.groups()[1].fill();
    EXPECT_EQ(arch.free_memory(depth), expected);
}

TEST(Architecture, BottleneckWideningReducesTestTime)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    Architecture arch = simple_arch(tables);
    const CycleCount before = arch.test_cycles();
    int added = 0;
    while (arch.add_wire_to_bottleneck(8) && added < 32) {
        ++added;
    }
    EXPECT_GT(added, 0);
    EXPECT_LT(arch.test_cycles(), before);
}

TEST(Architecture, BottleneckWideningStopsWhenSaturated)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    Architecture arch = simple_arch(tables);
    // Drain all possible improvement...
    while (arch.add_wire_to_bottleneck(64)) {
    }
    const WireCount wires = arch.total_wires();
    // ...then verify it reports saturation instead of burning wires.
    EXPECT_FALSE(arch.add_wire_to_bottleneck(64));
    EXPECT_EQ(arch.total_wires(), wires);
    EXPECT_FALSE(arch.add_wire_to_bottleneck(0));
}

TEST(Architecture, CompactRemovesRedundantGroup)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    Architecture arch(tables);
    // Group 0 is large enough to absorb everything at a generous depth;
    // group 1 only holds module 2 and should be eliminated.
    const std::size_t big = arch.add_group(4);
    arch.add_module(big, 0);
    arch.add_module(big, 1);
    arch.add_module(arch.add_group(1), 2);

    const CycleCount depth = arch.groups()[0].fill() + tables.time(2, 4) + 1000;
    const WireCount saved = arch.compact(depth);
    EXPECT_EQ(saved, 1);
    EXPECT_EQ(arch.groups().size(), 1u);
    EXPECT_EQ(arch.total_wires(), 4);
    EXPECT_LE(arch.test_cycles(), depth);
}

TEST(Architecture, CompactKeepsTightArchitectures)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    Architecture arch = simple_arch(tables);
    // Depth exactly at the current max fill: no relocation possible.
    const CycleCount depth = arch.test_cycles();
    const WireCount saved = arch.compact(depth);
    EXPECT_EQ(saved, 0);
    EXPECT_EQ(arch.groups().size(), 2u);
}

TEST(Architecture, ValidateAcceptsSimpleArch)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    const Architecture arch = simple_arch(tables);
    AteSpec ate;
    ate.channels = 16;
    ate.vector_memory_depth = arch.test_cycles() + 1;
    EXPECT_NO_THROW(arch.validate(ate));
}

TEST(Architecture, ValidateRejectsOverfilledGroup)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    const Architecture arch = simple_arch(tables);
    AteSpec ate;
    ate.channels = 16;
    ate.vector_memory_depth = arch.test_cycles() - 1;
    EXPECT_THROW(arch.validate(ate), ValidationError);
}

TEST(Architecture, ValidateRejectsMissingModule)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    Architecture arch(tables);
    arch.add_module(arch.add_group(2), 0);
    AteSpec ate;
    ate.channels = 16;
    ate.vector_memory_depth = 1'000'000;
    EXPECT_THROW(arch.validate(ate), ValidationError);
}

TEST(Architecture, ValidateRejectsDuplicateAssignment)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    Architecture arch = simple_arch(tables);
    arch.add_module(arch.groups().size() - 1, 0); // module 0 now in two groups
    AteSpec ate;
    ate.channels = 16;
    ate.vector_memory_depth = 10'000'000;
    EXPECT_THROW(arch.validate(ate), ValidationError);
}

TEST(Architecture, ValidateRejectsChannelOverrun)
{
    const Soc soc = three_module_soc();
    const SocTimeTables tables(soc);
    const Architecture arch = simple_arch(tables);
    AteSpec ate;
    ate.channels = 8; // arch needs 10
    ate.vector_memory_depth = 10'000'000;
    EXPECT_THROW(arch.validate(ate), ValidationError);
}

TEST(MaxSites, NoBroadcastIsFloorDivision)
{
    EXPECT_EQ(max_sites(72, 512, BroadcastMode::none), 7);
    EXPECT_EQ(max_sites(28, 256, BroadcastMode::none), 9);
    EXPECT_EQ(max_sites(512, 512, BroadcastMode::none), 1);
    EXPECT_EQ(max_sites(514, 512, BroadcastMode::none), 0);
    EXPECT_EQ(max_sites(0, 512, BroadcastMode::none), 0);
}

TEST(MaxSites, BroadcastSharesStimulusChannels)
{
    // (n+1) * k/2 <= K  ->  n = (K - k/2) / (k/2)
    EXPECT_EQ(max_sites(72, 512, BroadcastMode::stimuli), 13);
    EXPECT_EQ(max_sites(28, 256, BroadcastMode::stimuli), 17);
    EXPECT_EQ(max_sites(12, 256, BroadcastMode::stimuli), 41);
}

TEST(PerSiteBudget, InvertsMaxSites)
{
    for (const BroadcastMode mode : {BroadcastMode::none, BroadcastMode::stimuli}) {
        for (SiteCount n = 1; n <= 20; ++n) {
            const ChannelCount k = per_site_channel_budget(n, 512, mode);
            ASSERT_GT(k, 0);
            EXPECT_EQ(k % 2, 0);
            EXPECT_GE(max_sites(k, 512, mode), n) << "n=" << n;
            // Budget is maximal: two more channels would not support n sites.
            EXPECT_LT(max_sites(k + 2, 512, mode), n) << "n=" << n;
        }
    }
    EXPECT_EQ(per_site_channel_budget(0, 512, BroadcastMode::none), 0);
}

} // namespace
} // namespace mst
