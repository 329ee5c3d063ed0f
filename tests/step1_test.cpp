// Unit tests for Step 1: channel-minimizing architecture construction,
// infeasibility detection, and policy options.
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "baseline/lower_bound.hpp"
#include "common/error.hpp"
#include "core/pack_engine.hpp"
#include "core/step1.hpp"
#include "soc/d695.hpp"
#include "soc/generator.hpp"

namespace mst {
namespace {

AteSpec ate_spec(ChannelCount channels, CycleCount depth)
{
    AteSpec ate;
    ate.channels = channels;
    ate.vector_memory_depth = depth;
    return ate;
}

TEST(Step1, FlatSocGetsOneGroupAtMinimalWidth)
{
    const Soc soc("flat", {Module("core", 8, 8, 0, 100, {50, 50})});
    const SocTimeTables tables(soc);
    const CycleCount depth = tables.time(0, 2) + 10; // 2 wires suffice, 1 does not
    ASSERT_GT(tables.time(0, 1), depth);

    const Step1Result result = run_step1(tables, ate_spec(64, depth), OptimizeOptions{});
    EXPECT_EQ(result.architecture.groups().size(), 1u);
    EXPECT_EQ(result.channels, 4); // 2 wires
    EXPECT_EQ(result.max_sites, 16);
}

TEST(Step1, IdenticalModulesShareAGroupWhenDepthAllows)
{
    std::vector<Module> modules;
    for (int i = 0; i < 4; ++i) {
        modules.emplace_back("m" + std::to_string(i), 2, 2, 0, 10,
                             std::vector<FlipFlopCount>{20});
    }
    const Soc soc("quad", std::move(modules));
    const SocTimeTables tables(soc);
    const CycleCount one_at_w1 = tables.time(0, 1);
    // Depth fits all four modules serially on one wire.
    const Step1Result result =
        run_step1(tables, ate_spec(64, 4 * one_at_w1 + 100), OptimizeOptions{});
    EXPECT_EQ(result.channels, 2);
    EXPECT_EQ(result.architecture.groups().size(), 1u);
    EXPECT_EQ(result.architecture.groups()[0].module_indices().size(), 4u);
}

TEST(Step1, SplitsWhenDepthForcesIt)
{
    std::vector<Module> modules;
    for (int i = 0; i < 4; ++i) {
        modules.emplace_back("m" + std::to_string(i), 2, 2, 0, 10,
                             std::vector<FlipFlopCount>{20});
    }
    const Soc soc("quad", std::move(modules));
    const SocTimeTables tables(soc);
    const CycleCount one_at_w1 = tables.time(0, 1);
    // Depth fits exactly two serial tests per wire: need >= 2 wires.
    const Step1Result result =
        run_step1(tables, ate_spec(64, 2 * one_at_w1 + 1), OptimizeOptions{});
    EXPECT_GE(result.channels, 4);
    result.architecture.validate(ate_spec(64, 2 * one_at_w1 + 1));
}

TEST(Step1, ThrowsWhenAModuleFitsNoWidth)
{
    const Soc soc("bad", {Module("huge", 1, 1, 0, 1000, {5000})});
    const SocTimeTables tables(soc);
    EXPECT_THROW((void)run_step1(tables, ate_spec(64, 100), OptimizeOptions{}),
                 InfeasibleError);
}

TEST(Step1, ThrowsWhenChannelBudgetTooSmall)
{
    // Two modules, each of which alone nearly fills the memory: they need
    // separate (or wide) groups, but the ATE has only 2 channels.
    const Soc soc("tight", {Module("a", 1, 1, 0, 100, {100}),
                            Module("b", 1, 1, 0, 100, {100})});
    const SocTimeTables tables(soc);
    const CycleCount depth = tables.time(0, 1) + 10;
    EXPECT_THROW((void)run_step1(tables, ate_spec(2, depth), OptimizeOptions{}),
                 InfeasibleError);
}

TEST(Step1, ChannelCountIsAlwaysEven)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    for (const CycleCount depth : {48 * kibi, 64 * kibi, 96 * kibi, 128 * kibi}) {
        const Step1Result result = run_step1(tables, ate_spec(256, depth), OptimizeOptions{});
        EXPECT_EQ(result.channels % 2, 0) << "depth=" << depth;
    }
}

TEST(Step1, D695MatchesPaperBallpark)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    // Paper Table 1 (d695, 48K): k = 28. Allow +/- one wire for the
    // reconstructed module data.
    const Step1Result result =
        run_step1(tables, ate_spec(256, 48 * kibi), OptimizeOptions{});
    EXPECT_GE(result.channels, 26);
    EXPECT_LE(result.channels, 32);
    result.architecture.validate(ate_spec(256, 48 * kibi));
}

TEST(Step1, NeverBeatsTheLowerBound)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    for (const CycleCount depth : {48 * kibi, 72 * kibi, 104 * kibi}) {
        const auto lb = lower_bound_channels(tables, depth);
        ASSERT_TRUE(lb.has_value());
        const Step1Result result = run_step1(tables, ate_spec(256, depth), OptimizeOptions{});
        EXPECT_GE(result.channels, *lb);
    }
}

TEST(Step1, BroadcastRaisesMaxSites)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    OptimizeOptions plain;
    OptimizeOptions broadcast;
    broadcast.broadcast = BroadcastMode::stimuli;
    const Step1Result without = run_step1(tables, ate_spec(256, 48 * kibi), plain);
    const Step1Result with = run_step1(tables, ate_spec(256, 48 * kibi), broadcast);
    EXPECT_EQ(without.channels, with.channels); // Step 1 itself is unchanged
    EXPECT_GT(with.max_sites, without.max_sites);
}

TEST(Step1, BudgetSearchNeverWorseThanRawGreedy)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    OptimizeOptions raw;
    raw.budget_search = false; // the paper's literal Fig. 4 greedy
    OptimizeOptions tuned;
    for (const CycleCount depth : {48 * kibi, 64 * kibi, 96 * kibi}) {
        const Step1Result raw_result = run_step1(tables, ate_spec(256, depth), raw);
        const Step1Result tuned_result = run_step1(tables, ate_spec(256, depth), tuned);
        EXPECT_LE(tuned_result.channels, raw_result.channels) << depth;
    }
}

/// Sequential reference of the criterion-1 budget ascent: probe every
/// budget from the search floor upward, one at a time, each over the
/// Step-1 fraction sweep (1.0, then 0.975 down to 0.55 in 0.025 steps,
/// mirrored from step1.cpp), and keep the first packing found. No
/// waves, no monotonicity assumption — this is the scan the parallel
/// ascent must reproduce exactly, because greedy feasibility is NOT
/// monotone in the wire budget.
std::optional<std::pair<WireCount, Architecture>> reference_ascent(const SocTimeTables& tables,
                                                                   const AteSpec& ate,
                                                                   const OptimizeOptions& options)
{
    const CycleCount depth = ate.vector_memory_depth;
    const WireCount ate_wires = wires_from_channels(ate.channels);

    WireCount widest = 1;
    for (int m = 0; m < tables.module_count(); ++m) {
        const std::optional<WireCount> width = tables.min_width_for(m, depth);
        if (!width || *width > ate_wires) {
            return std::nullopt;
        }
        widest = std::max(widest, *width);
    }
    std::vector<double> fractions{1.0};
    for (int step = 39; step >= 22; --step) {
        fractions.push_back(0.025 * step);
    }
    const auto area_bound =
        static_cast<WireCount>((tables.total_min_area() + depth - 1) / depth);

    PackEngine engine(tables, options);
    for (WireCount budget = std::max(widest, area_bound); budget <= ate_wires; ++budget) {
        for (const double fraction : fractions) {
            const auto virtual_depth =
                static_cast<CycleCount>(static_cast<double>(depth) * fraction);
            std::optional<Architecture> packed = engine.pack_within(virtual_depth, budget);
            if (packed) {
                return std::make_pair(budget, std::move(*packed));
            }
        }
    }
    return std::nullopt;
}

/// The wave ascent must match the sequential linear scan even when the
/// first feasible budget sits several wires above the search floor —
/// the batched probe path the bench scenarios (whose winner is always
/// within the first two budgets) never reach. A gallop/bisect shortcut
/// would be free to skip exactly these budgets.
TEST(Step1, BudgetAscentMatchesSequentialReferenceBeyondFirstWaves)
{
    OptimizeOptions options;

    // Random SOCs for breadth (their winner sits at or just above the
    // floor), plus a crafted deep-gap SOC: ten modules of three equal
    // chains, whose time tables flatten at width 3 — no two of them can
    // ever share a group within the depth below, so feasibility needs
    // 30 wires while the loose depth puts the area bound several wires
    // lower. That drives the ascent through the batched waves.
    std::vector<std::pair<Soc, std::vector<CycleCount>>> cases;
    for (const std::uint64_t seed : {7u, 23u, 41u, 77u, 99u}) {
        Soc soc = random_soc(seed, 12);
        const SocTimeTables tables(soc);
        std::vector<CycleCount> depths;
        for (const CycleCount divisor : {3, 5, 8, 12}) {
            if (tables.total_min_area() / divisor >= 1) {
                depths.push_back(tables.total_min_area() / divisor);
            }
        }
        cases.emplace_back(std::move(soc), std::move(depths));
    }
    {
        std::vector<Module> rigid;
        for (int i = 0; i < 10; ++i) {
            rigid.emplace_back("r" + std::to_string(i), 4, 4, 0, 50,
                               std::vector<FlipFlopCount>{40, 40, 40});
        }
        Soc soc("rigid", std::move(rigid));
        const SocTimeTables tables(soc);
        const CycleCount flat = tables.time(0, 3);
        cases.emplace_back(std::move(soc),
                           std::vector<CycleCount>{flat * 13 / 10, flat * 12 / 10});
    }

    WireCount deepest_gap = 0;
    for (const auto& [soc, depths] : cases) {
        const SocTimeTables tables(soc);
        for (const CycleCount depth : depths) {
            const AteSpec ate = ate_spec(64, depth);
            const std::optional<std::pair<WireCount, Architecture>> reference =
                reference_ascent(tables, ate, options);
            if (!reference) {
                EXPECT_THROW((void)run_step1(tables, ate, options), InfeasibleError)
                    << soc.name() << " depth=" << depth;
                continue;
            }
            WireCount widest = 1;
            for (int m = 0; m < tables.module_count(); ++m) {
                widest = std::max(widest, *tables.min_width_for(m, depth));
            }
            const auto area_bound =
                static_cast<WireCount>((tables.total_min_area() + depth - 1) / depth);
            deepest_gap =
                std::max(deepest_gap, reference->first - std::max(widest, area_bound));

            // Step 1 compacts the ascent winner; so does the reference.
            Architecture expected = reference->second;
            expected.compact(depth);
            for (const int threads : {1, 8}) {
                options.threads = threads;
                const Step1Result result = run_step1(tables, ate, options);
                ASSERT_EQ(result.architecture.groups().size(), expected.groups().size())
                    << soc.name() << " depth=" << depth << " threads=" << threads;
                EXPECT_EQ(result.architecture.total_wires(), expected.total_wires());
                EXPECT_EQ(result.architecture.test_cycles(), expected.test_cycles());
                for (std::size_t g = 0; g < expected.groups().size(); ++g) {
                    EXPECT_EQ(result.architecture.groups()[g].width(),
                              expected.groups()[g].width());
                    EXPECT_EQ(result.architecture.groups()[g].module_indices(),
                              expected.groups()[g].module_indices());
                }
            }
            options.threads = 0;
        }
    }
    // At least one case must have pushed the ascent into the batched
    // multi-budget waves, or this test would only re-cover the
    // first-two-budget fast path.
    EXPECT_GE(deepest_gap, 2) << "test inputs no longer reach the batched budget waves";
}

/// Compaction after the budget search is live: on this SOC the ascent
/// winner has 23 wires, and deleting one group whose modules fit into
/// the others' slack brings it to 22. Among ~10.9k feasible cells over
/// 600 random SOCs and the five benchmark SOCs, this SOC at depth
/// 50 000 (on 64 to 512 channels) is the only place where it saves a
/// wire; without compaction Step 1 reports 46 channels here.
TEST(Step1, CompactionSavesAWire)
{
    const Soc soc = random_soc(423, 24);
    const SocTimeTables tables(soc);
    const Step1Result result = run_step1(tables, ate_spec(64, 50'000), OptimizeOptions{});
    EXPECT_EQ(result.channels, 44);
    EXPECT_LE(result.architecture.test_cycles(), 50'000);
}

TEST(Step1, DeterministicAcrossRuns)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const Step1Result a = run_step1(tables, ate_spec(256, 56 * kibi), OptimizeOptions{});
    const Step1Result b = run_step1(tables, ate_spec(256, 56 * kibi), OptimizeOptions{});
    EXPECT_EQ(a.channels, b.channels);
    EXPECT_EQ(a.max_sites, b.max_sites);
    EXPECT_EQ(a.architecture.test_cycles(), b.architecture.test_cycles());
}

} // namespace
} // namespace mst
