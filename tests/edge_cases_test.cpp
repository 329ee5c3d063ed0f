// Edge-case sweeps across modules: extreme but legal inputs that the
// mainline suites do not cover.
#include <gtest/gtest.h>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "core/optimizer.hpp"
#include "report/gantt.hpp"
#include "soc/parser.hpp"
#include "soc/writer.hpp"
#include "wrapper/pareto.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {
namespace {

TEST(EdgeCases, PurelyCombinationalSoc)
{
    // No scan chains anywhere: wrappers are built from boundary cells only.
    const Soc soc("comb", {Module("a", 64, 64, 0, 100, {}),
                           Module("b", 32, 16, 0, 50, {})});
    TestCell cell;
    cell.ate.channels = 64;
    cell.ate.vector_memory_depth = 10'000;
    const Solution solution = optimize_multi_site(soc, cell);
    EXPECT_GE(solution.sites, 1);
    EXPECT_LE(solution.test_cycles, cell.ate.vector_memory_depth);
}

TEST(EdgeCases, BidirOnlyModule)
{
    const Module m("bidir", 0, 0, 48, 10, {});
    EXPECT_EQ(m.scan_in_cells(), 48);
    EXPECT_EQ(m.scan_out_cells(), 48);
    const WrapperDesign design = design_wrapper(m, 6);
    EXPECT_EQ(design.max_scan_in, 8);
    EXPECT_EQ(design.max_scan_out, 8);
}

TEST(EdgeCases, SinglePatternModule)
{
    const Module m("one", 4, 4, 0, 1, {16});
    // t = (1 + si) * 1 + so
    const WrapperDesign design = design_wrapper(m, 1);
    EXPECT_EQ(design.test_time, (1 + 20) + 20);
}

TEST(EdgeCases, VeryLongSingleChainDominatesEverything)
{
    const Soc soc("snake", {Module("snake", 1, 1, 0, 10, {10'000})});
    const SocTimeTables tables(soc);
    // Width 2 moves the functional cells off the chain; beyond that no
    // width can break the indivisible chain, so the staircase is flat.
    EXPECT_EQ(tables.time(0, 2), tables.time(0, tables.flat_max_width(0)));
    EXPECT_LE(tables.time(0, 1) - tables.time(0, 2), 10 * 2); // only the cells moved
}

TEST(EdgeCases, ManyTinyModulesShareOneWire)
{
    std::vector<Module> modules;
    for (int i = 0; i < 40; ++i) {
        modules.emplace_back("t" + std::to_string(i), 1, 1, 0, 2,
                             std::vector<FlipFlopCount>{2});
    }
    const Soc soc("confetti", std::move(modules));
    TestCell cell;
    cell.ate.channels = 8;
    cell.ate.vector_memory_depth = 10'000;
    const Solution solution = optimize_multi_site(soc, cell);
    EXPECT_EQ(solution.channels_per_site, 2); // everything fits one wire
}

TEST(EdgeCases, DepthExactlyAtTheBoundary)
{
    const Soc soc("fit", {Module("m", 2, 2, 0, 10, {20})});
    const SocTimeTables tables(soc);
    const CycleCount exact_fit = tables.time(0, 1);
    TestCell cell;
    cell.ate.channels = 8;
    cell.ate.vector_memory_depth = exact_fit; // <= is allowed
    const Solution solution = optimize_multi_site(soc, cell);
    EXPECT_EQ(solution.test_cycles, exact_fit);
    cell.ate.vector_memory_depth = exact_fit - 1;
    // One cycle less: a wider wrapper or infeasibility, never overflow.
    try {
        const Solution tighter = optimize_multi_site(soc, cell);
        EXPECT_LE(tighter.test_cycles, exact_fit - 1);
    } catch (const InfeasibleError&) {
        SUCCEED();
    }
}

TEST(EdgeCases, ParserAcceptsTabsAndCarriageReturns)
{
    const Soc soc = parse_soc_string("soc x\r\nmodule\tm inputs 1 outputs 1 patterns 1\r\nend\r\n");
    EXPECT_EQ(soc.module_count(), 1);
}

TEST(EdgeCases, WriterHandlesManyChains)
{
    std::vector<FlipFlopCount> chains(100, 7);
    const Soc soc("wide", {Module("m", 1, 1, 0, 5, std::move(chains))});
    const Soc round = parse_soc_string(soc_to_string(soc));
    EXPECT_EQ(round.module(0).scan_chain_count(), 100);
}

TEST(EdgeCases, GanttLegendTruncatesBeyondAlphabet)
{
    std::vector<Module> modules;
    for (int i = 0; i < 30; ++i) {
        modules.emplace_back("m" + std::to_string(i), 1, 1, 0, 2,
                             std::vector<FlipFlopCount>{2});
    }
    const Soc soc("many", std::move(modules));
    const SocTimeTables tables(soc);
    Architecture arch(tables);
    const std::size_t group = arch.add_group(1);
    for (int i = 0; i < 30; ++i) {
        arch.add_module(group, i);
    }
    const std::string text = render_gantt(arch, arch.test_cycles(), 64);
    EXPECT_NE(text.find("..."), std::string::npos);
}

TEST(EdgeCases, StepOneWithWidthCapModules)
{
    // A module with enormous terminal counts exercises the width cap.
    const Soc soc("fat", {Module("m", 2000, 2000, 0, 4, {})});
    const SocTimeTables tables(soc);
    EXPECT_LE(tables.flat_max_width(0), width_cap);
    TestCell cell;
    cell.ate.channels = 2 * width_cap + 64;
    cell.ate.vector_memory_depth = 64;
    const Solution solution = optimize_multi_site(soc, cell);
    EXPECT_LE(wires_from_channels(solution.channels_per_site), width_cap);
}

TEST(EdgeCases, ZeroIndexTimeProber)
{
    TestCell cell;
    cell.ate.channels = 64;
    cell.ate.vector_memory_depth = 100'000;
    cell.prober.index_time = 0.0; // legal: instantaneous stepping
    const Soc soc("fit", {Module("m", 2, 2, 0, 10, {20})});
    const Solution solution = optimize_multi_site(soc, cell);
    EXPECT_GT(solution.best_throughput(), 0.0);
}

TEST(EdgeCases, SiteCurveMonotoneTestTime)
{
    // The incumbent-carrying Step 2 guarantees monotone t_m even on
    // awkward SOCs with saturated groups.
    std::vector<Module> modules;
    for (int i = 0; i < 6; ++i) {
        // Single-chain modules saturate at width 1-2.
        modules.emplace_back("s" + std::to_string(i), 2, 2, 0, 50,
                             std::vector<FlipFlopCount>{300});
    }
    const Soc soc("sat", std::move(modules));
    TestCell cell;
    cell.ate.channels = 64;
    cell.ate.vector_memory_depth = 40'000;
    const Solution solution = optimize_multi_site(soc, cell);
    for (std::size_t i = 1; i < solution.site_curve.size(); ++i) {
        EXPECT_LE(solution.site_curve[i].test_cycles,
                  solution.site_curve[i - 1].test_cycles);
    }
}

} // namespace
} // namespace mst
