// The table set's pack memo (arch/pack_memo.hpp) is pure sharing: a solve
// over a table set that earlier solves already filled must answer
// exactly like a solve over a fresh table set, in any solve order, at
// any fill level of the memo, and under concurrent solves. "Exactly"
// covers the whole solution JSON and every work counter but `threads`:
// a solve that reuses an answer or a whole plan reports its recorded
// work as its own.
//
// The grid: a 3000-module narrow-deep SOC, p93791 and two random SOCs,
// each x {256, 512, 1024} channels x {2M, 7M, 32M} vectors x the
// variants below. Most variants only change the throughput score, so
// over one table set they share one plan per cell shape; broadcast,
// step1_only and the paper's greedy (budget_search off) each plan their
// own.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "core/pack_engine.hpp"
#include "core/step1.hpp"
#include "core/step2.hpp"
#include "report/solution_json.hpp"
#include "soc/d695.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"

namespace mst {
namespace {

struct GridScenario {
    TestCell cell;
    OptimizeOptions options;
    std::string name;
};

constexpr int variant_count = 9;

/// Variant `variant` of the grid, applied to `scenario`.
void apply_variant(int variant, GridScenario& scenario)
{
    OptimizeOptions& options = scenario.options;
    ProbeStation& prober = scenario.cell.prober;
    switch (variant) {
    case 1: options.broadcast = BroadcastMode::stimuli; break;
    case 2: options.abort = AbortOnFail::on; break;
    case 3: options.retest = RetestPolicy::retest_contact_failures; break;
    case 4: prober.index_time = 0.5; break; // the default, spelled out
    case 5:
        prober.index_time = 2.0;
        prober.contact_test_time = 0.5;
        break;
    case 6: options.step1_only = true; break;
    case 7: options.budget_search = false; break;
    case 8:
        options.yields.contact_yield_per_terminal = 0.999;
        options.yields.manufacturing_yield = 0.9;
        options.abort = AbortOnFail::on;
        options.retest = RetestPolicy::retest_contact_failures;
        break;
    default: break;
    }
}

std::vector<GridScenario> grid()
{
    std::vector<GridScenario> scenarios;
    for (const int channels : {256, 512, 1024}) {
        for (const CycleCount depth : {2 * mebi, 7 * mebi, 32 * mebi}) {
            for (int variant = 0; variant < variant_count; ++variant) {
                GridScenario scenario;
                scenario.cell.ate.channels = channels;
                scenario.cell.ate.vector_memory_depth = depth;
                scenario.options.threads = 1;
                apply_variant(variant, scenario);
                scenario.name = std::to_string(channels) + "x" + std::to_string(depth) + "/v" +
                                std::to_string(variant);
                scenarios.push_back(scenario);
            }
        }
    }
    return scenarios;
}

/// The grid's indices in a fixed shuffled order.
std::vector<std::size_t> shuffled_order(std::size_t count)
{
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng rng(test_seeds::pack_memo[0]);
    for (std::size_t i = count - 1; i > 0; --i) {
        const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i));
        std::swap(order[i], order[static_cast<std::size_t>(j)]);
    }
    return order;
}

/// One solve's observable outcome: the solution JSON (or the error) and
/// every work counter but `threads`.
struct Outcome {
    std::string json;
    PackStats packing;
    std::int64_t site_points = 0;
};

Outcome solve(const SocTimeTables& tables, const GridScenario& scenario)
{
    Outcome outcome;
    try {
        const Solution solution = optimize_multi_site(tables, scenario.cell, scenario.options);
        outcome.json = solution_to_json(solution);
        outcome.packing = solution.stats.packing;
        outcome.site_points = solution.stats.site_points;
    } catch (const Error& e) {
        outcome.json = std::string("error: ") + e.what();
    }
    return outcome;
}

void expect_same(const Outcome& got, const Outcome& want, const std::string& where)
{
    EXPECT_EQ(got.json, want.json) << where;
    EXPECT_EQ(got.packing.pack_calls, want.packing.pack_calls) << where;
    EXPECT_EQ(got.packing.pack_cache_hits, want.packing.pack_cache_hits) << where;
    EXPECT_EQ(got.packing.greedy_passes, want.packing.greedy_passes) << where;
    EXPECT_EQ(got.packing.depth_profiles, want.packing.depth_profiles) << where;
    EXPECT_EQ(got.packing.pruned_packs, want.packing.pruned_packs) << where;
    EXPECT_EQ(got.site_points, want.site_points) << where;
}

Soc soc_named(const std::string& name)
{
    if (name == "gen300x-deep") {
        return generate_soc(scaled_benchmark_config(name, 3000, ScaledShape::narrow_deep));
    }
    if (name == "random-a") {
        return random_soc(test_seeds::pack_memo[0], 40);
    }
    if (name == "random-b") {
        return random_soc(test_seeds::pack_memo[1], 40);
    }
    return make_benchmark_soc(name);
}

/// Every grid scenario solved over its own fresh table set: the answers
/// no memo content can have influenced. Computed once per SOC.
const std::vector<Outcome>& fresh_outcomes(const std::string& name, const Soc& soc)
{
    static std::map<std::string, std::vector<Outcome>> cache;
    auto found = cache.find(name);
    if (found == cache.end()) {
        std::vector<Outcome> outcomes;
        for (const GridScenario& scenario : grid()) {
            const SocTimeTables tables(soc, TableBuild::fast, 1);
            outcomes.push_back(solve(tables, scenario));
        }
        found = cache.emplace(name, std::move(outcomes)).first;
    }
    return found->second;
}

class PackMemoGrid : public ::testing::TestWithParam<const char*> {};

TEST_P(PackMemoGrid, SharedTableSetMatchesFreshSolvesForwardAndShuffled)
{
    const Soc soc = soc_named(GetParam());
    const std::vector<GridScenario> scenarios = grid();
    const std::vector<Outcome>& fresh = fresh_outcomes(GetParam(), soc);

    // Forward over one table set, then shuffled over it (every solve a
    // plan hit), then shuffled over another (plans found out of order).
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
        expect_same(solve(tables, scenarios[k]), fresh[k],
                    std::string(GetParam()) + " forward " + scenarios[k].name);
    }
    const PackMemo& memo = tables.pack_memo();
    const std::size_t filled = memo.size();
    const std::size_t plans = memo.plan_count();
    EXPECT_GT(filled, 0U);
    // One plan per cell shape that Step 1 can test: the score-only
    // variants share the plain plan.
    EXPECT_LE(plans, 9U * 4U);
    EXPECT_GT(plans, 0U);
    const std::vector<std::size_t> order = shuffled_order(scenarios.size());
    for (const std::size_t k : order) {
        expect_same(solve(tables, scenarios[k]), fresh[k],
                    std::string(GetParam()) + " shuffled " + scenarios[k].name);
    }
    // The second pass searches nothing new.
    EXPECT_EQ(memo.size(), filled);
    EXPECT_EQ(memo.plan_count(), plans);
    EXPECT_LE(memo.charged_words(), memo.capacity_words());

    const SocTimeTables other(soc, TableBuild::fast, 1);
    for (const std::size_t k : order) {
        expect_same(solve(other, scenarios[k]), fresh[k],
                    std::string(GetParam()) + " shuffled fresh " + scenarios[k].name);
    }
    EXPECT_EQ(other.pack_memo().plan_count(), plans);
}

TEST_P(PackMemoGrid, FullMemoStillAnswersLikeFreshSolves)
{
    const Soc soc = soc_named(GetParam());
    const std::vector<GridScenario> scenarios = grid();
    const std::vector<Outcome>& fresh = fresh_outcomes(GetParam(), soc);

    // Fill the memo with answers to queries no solve asks (budget 0),
    // up to `slack` words short of its cap: with no slack the memo
    // accepts nothing more, with some it fills up part way through.
    for (const std::size_t slack : {std::size_t{0}, std::size_t{4096}}) {
        const SocTimeTables tables(soc, TableBuild::fast, 1);
        PackMemo& memo = tables.pack_memo();
        for (CycleCount depth = 1; memo.charged_words() + slack < memo.capacity_words(); ++depth) {
            if (memo.publish({depth, 0, true}, PackAnswer(0, false)) == nullptr) {
                break;
            }
        }
        const std::size_t before = memo.size();
        ASSERT_GT(before, 0U);
        for (std::size_t k = 0; k < scenarios.size(); ++k) {
            expect_same(solve(tables, scenarios[k]), fresh[k],
                        std::string(GetParam()) + " slack " + std::to_string(slack) + " " +
                            scenarios[k].name);
        }
        EXPECT_LE(memo.charged_words(), memo.capacity_words());
        if (slack == 0) {
            EXPECT_EQ(memo.size(), before);
            EXPECT_EQ(memo.plan_count(), 0U);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(GridSocs, PackMemoGrid,
                         ::testing::Values("gen300x-deep", "p93791", "random-a", "random-b"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

TEST(PackMemo, ReferenceModeNeitherReadsNorGrowsTheMemo)
{
    // 200 modules: a memo cap that holds the poison below.
    const Soc soc = random_soc(test_seeds::pack_memo[0], 200);
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    TestCell cell; // 512 channels x 7M vectors
    OptimizeOptions reference;
    reference.memoize = false;
    reference.threads = 1;
    const std::string want = solution_to_json(optimize_multi_site(soc, cell, reference));

    // Poison every query Step 1's budget ascent can ask: claim no
    // packing exists. A solve that reads the memo fails Step 1.
    PackMemo& memo = tables.pack_memo();
    for (int step = 40; step >= 22; --step) {
        const auto depth = static_cast<CycleCount>(
            static_cast<double>(cell.ate.vector_memory_depth) * (0.025 * step));
        for (WireCount budget = 1; budget <= wires_from_channels(cell.ate.channels); ++budget) {
            ASSERT_NE(memo.publish({depth, budget, true}, PackAnswer(0, false)), nullptr);
        }
    }
    const std::size_t poisoned = memo.size();

    const Solution got = optimize_multi_site(tables, cell, reference);
    EXPECT_EQ(solution_to_json(got), want);
    EXPECT_EQ(got.stats.packing.pack_cache_hits, 0);
    EXPECT_EQ(got.stats.packing.depth_profiles, got.stats.packing.pack_calls);
    EXPECT_EQ(memo.size(), poisoned);

    // The poison is live: a memoized solve does read it.
    OptimizeOptions memoized;
    memoized.threads = 1;
    EXPECT_THROW((void)optimize_multi_site(tables, cell, memoized), InfeasibleError);
}

TEST(PackMemo, StepOneModesKeepTheirOwnAnswers)
{
    // The paper's greedy runs one pass per query, the budget search up
    // to nine: the same (depth, budget) can pack in one mode and not in
    // the other, so the modes must not share answers.
    const Soc soc = make_benchmark_soc("p93791");
    const SocTimeTables shared(soc, TableBuild::fast, 1);
    for (const bool budget_search : {false, true}) {
        GridScenario scenario;
        scenario.cell.ate.channels = 1024;
        scenario.cell.ate.vector_memory_depth = 2 * mebi;
        scenario.options.threads = 1;
        scenario.options.budget_search = budget_search;
        const SocTimeTables fresh(soc, TableBuild::fast, 1);
        expect_same(solve(shared, scenario), solve(fresh, scenario),
                    budget_search ? "budget search" : "paper greedy");
    }
}

TEST(PlanMemo, ExactCertificationOnAPlanHitMatchesAFreshSolve)
{
    // The exact pass is seeded with Step 1's groups: a plan hit rebuilds
    // them from the plan, and the branch and bound must walk the same
    // tree (bnb_nodes) as over a fresh table set.
    const Soc soc = make_d695();
    GridScenario scenario;
    scenario.cell.ate.channels = 512;
    scenario.cell.ate.vector_memory_depth = 32 * kibi;
    scenario.options.threads = 1;
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    (void)solve(tables, scenario); // publishes the plan, no exact pass
    ASSERT_EQ(tables.pack_memo().plan_count(), 1U);

    scenario.options.exact = true;
    const SocTimeTables fresh(soc, TableBuild::fast, 1);
    const Outcome want = solve(fresh, scenario);
    ASSERT_NE(want.json.find("\"bnb_nodes\""), std::string::npos);
    expect_same(solve(tables, scenario), want, "d695 exact on a plan hit");
    EXPECT_EQ(tables.pack_memo().plan_count(), 1U);
}

TEST(PlanMemo, ReferenceModeIgnoresAPoisonedPlanThatMemoizedSolvesRead)
{
    // Publish the plan of a 1024-channel cell under the key of a
    // 512-channel one: a solve that reads it cannot match a fresh solve.
    const Soc soc = make_benchmark_soc("p93791");
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    GridScenario scenario;
    scenario.options.threads = 1;
    scenario.cell.ate.channels = 1024;
    PackEngine engine(tables, scenario.options);
    const Step1Result step1 = run_step1(engine, scenario.cell.ate);
    DftPlan bogus(step1.architecture, step1.max_sites);
    plan_step2(engine, step1, scenario.cell.ate, bogus);
    bogus.set_stats(engine.stats());
    ASSERT_TRUE(bogus.publishable());

    scenario.cell.ate.channels = 512;
    const SocTimeTables fresh(soc, TableBuild::fast, 1);
    const Outcome want = solve(fresh, scenario);
    const PlanKey key{scenario.cell.ate.vector_memory_depth, scenario.cell.ate.channels,
                      BroadcastMode::none, true, false};
    ASSERT_NE(tables.pack_memo().publish(key, std::move(bogus)), nullptr);

    GridScenario reference = scenario;
    reference.options.memoize = false;
    const Outcome got = solve(tables, reference);
    EXPECT_EQ(got.json, want.json);
    EXPECT_EQ(tables.pack_memo().plan_count(), 1U);

    // The poison is live: a memoized solve does read it.
    EXPECT_NE(solve(tables, scenario).json, want.json);
}

TEST(PlanMemo, APlanPointingAtAnUnpublishedAnswerIsNotPublishable)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    const Step1Result step1 = run_step1(tables, TestCell{}.ate, OptimizeOptions{});
    const PackAnswer answer(step1.architecture, 1);

    DftPlan plan(step1.architecture, step1.max_sites);
    EXPECT_TRUE(plan.publishable());
    plan.repack(answer, true);
    EXPECT_TRUE(plan.publishable());
    plan.repack(answer, false);
    EXPECT_FALSE(plan.publishable());
}

TEST(PackMemo, RacingSolvesOnOneTableSetMatchSerialSolves)
{
    const std::vector<GridScenario> scenarios = grid();
    for (const char* name : {"p93791", "random-a"}) {
        const Soc soc = soc_named(name);
        const std::vector<Outcome>& fresh = fresh_outcomes(name, soc);

        // Eight threads walk the grid over one table set, each from its
        // own starting scenario, so most queries race a first publish.
        constexpr std::size_t racers = 8;
        const SocTimeTables tables(soc, TableBuild::fast, 1);
        std::vector<std::vector<Outcome>> raced(racers, std::vector<Outcome>(scenarios.size()));
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < racers; ++t) {
            threads.emplace_back([&, t] {
                for (std::size_t i = 0; i < scenarios.size(); ++i) {
                    const std::size_t k = (i + t * scenarios.size() / racers) % scenarios.size();
                    raced[t][k] = solve(tables, scenarios[k]);
                }
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
        for (std::size_t t = 0; t < racers; ++t) {
            for (std::size_t k = 0; k < scenarios.size(); ++k) {
                expect_same(raced[t][k], fresh[k],
                            std::string(name) + " racer " + std::to_string(t) + " " +
                                scenarios[k].name);
            }
        }
    }
}

/// `arch`'s groups rebuilt the slow way: add_group, then add_module per
/// member.
Architecture replayed(const Architecture& arch)
{
    Architecture replay(arch.tables());
    for (const ChannelGroup& group : arch.groups()) {
        const std::size_t g = replay.add_group(group.width());
        for (const int module_index : group.module_indices()) {
            replay.add_module(g, module_index);
        }
    }
    return replay;
}

void expect_same_architecture(const Architecture& got, const Architecture& want,
                              const std::string& where)
{
    ASSERT_EQ(got.groups().size(), want.groups().size()) << where;
    for (std::size_t g = 0; g < want.groups().size(); ++g) {
        const ChannelGroup& a = got.groups()[g];
        const ChannelGroup& b = want.groups()[g];
        EXPECT_EQ(a.width(), b.width()) << where << " group " << g;
        EXPECT_EQ(a.module_indices(), b.module_indices()) << where << " group " << g;
        EXPECT_EQ(a.fill(), b.fill()) << where << " group " << g;
    }
    EXPECT_EQ(got.group_fills(), want.group_fills()) << where;
    EXPECT_EQ(got.group_widths(), want.group_widths()) << where;
    EXPECT_EQ(got.total_fill(), want.total_fill()) << where;
    EXPECT_EQ(got.total_wires(), want.total_wires()) << where;
}

/// Unpacking `arch`'s answer must equal the add_module replay, also
/// after the same widenings of both (fills past the members' widest
/// table saturate the same way).
void expect_unpack_matches_replay(const Architecture& arch, const std::string& where)
{
    Architecture got = PackAnswer(arch, 1).unpack(arch.tables());
    Architecture want = replayed(arch);
    expect_same_architecture(got, want, where);
    for (std::size_t g = 0; g < arch.groups().size(); ++g) {
        for (const WireCount extra : {1, 3, 64}) {
            got.widen_group(g, extra);
            want.widen_group(g, extra);
        }
        (void)got.add_wire_to_bottleneck(8);
        (void)want.add_wire_to_bottleneck(8);
    }
    expect_same_architecture(got, want, where + " widened");
}

TEST(PackAnswer, BulkUnpackMatchesAnAddModuleReplay)
{
    for (const char* name : {"p93791", "random-a", "gen300x-deep"}) {
        const Soc soc = soc_named(name);
        const SocTimeTables tables(soc, TableBuild::fast, 1);
        for (const int channels : {256, 1024}) {
            GridScenario scenario;
            scenario.cell.ate.channels = channels;
            scenario.options.threads = 1;
            const std::string where = std::string(name) + " " + std::to_string(channels);
            (void)optimize_multi_site(tables, scenario.cell, scenario.options);
            const DftPlan* plan = tables.pack_memo().find(
                PlanKey{scenario.cell.ate.vector_memory_depth, channels, BroadcastMode::none,
                        true, false});
            ASSERT_NE(plan, nullptr) << where;
            expect_unpack_matches_replay(plan->step1_architecture(tables), where + " step1");
            // Every incumbent of Step 2: a base unpacked, then architecture_at's
            // widen replay.
            ASSERT_FALSE(plan->steps().empty()) << where;
            for (std::size_t step = 0; step < plan->steps().size(); ++step) {
                const Architecture at = plan->architecture_at(step, tables);
                EXPECT_EQ(at.channels(), plan->steps()[step].channels_per_site) << where;
                EXPECT_EQ(at.test_cycles(), plan->steps()[step].test_cycles) << where;
                expect_unpack_matches_replay(at, where + " step " + std::to_string(step));
            }
        }
    }
}

TEST(PackAnswer, RoundTripsIndicesPastSixteenBits)
{
    // 70,000 one-terminal modules: indices from 65,536 up take the
    // two-word encoding.
    constexpr int count = 70000;
    std::vector<Module> modules;
    modules.reserve(count);
    for (int m = 0; m < count; ++m) {
        modules.emplace_back("m" + std::to_string(m), 1 + m % 3, 1 + m % 2, 0, 1 + m % 7,
                             std::vector<FlipFlopCount>{});
    }
    const Soc soc("wide-index", std::move(modules));
    const SocTimeTables tables(soc, TableBuild::fast, 1);

    // 70 groups of 1,000 members each, the indices spread by a stride
    // co-prime with the count, so every group mixes narrow and wide ones.
    Architecture arch(tables);
    std::size_t member = 0;
    for (int g = 0; g < 70; ++g) {
        const std::size_t group = arch.add_group(1 + g % 4);
        for (int i = 0; i < 1000; ++i, ++member) {
            arch.add_module(group, static_cast<int>(member * 7919 % count));
        }
    }
    const PackAnswer answer(arch, 1);
    EXPECT_EQ(answer.words(), 70U * 4U + 2U * count);
    const Architecture got = answer.unpack(tables);
    expect_same_architecture(got, arch, "wide indices");
    expect_same_architecture(got, replayed(arch), "wide indices replay");
    int widest = 0;
    for (const ChannelGroup& group : got.groups()) {
        for (const int module_index : group.module_indices()) {
            widest = std::max(widest, module_index);
        }
    }
    EXPECT_EQ(widest, count - 1);
}

TEST(PackMemo, SmallSocKeepsEveryPlanOfAWideSweep)
{
    // d695 has 10 modules: at 2,048 words per module the memo would stop
    // publishing after a few dozen cell shapes. The floor keeps all 32.
    const Soc soc = make_d695();
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    std::size_t solved = 0;
    for (const int channels : {128, 256, 512, 1024}) {
        for (const CycleCount depth : {64 * kibi, 128 * kibi, 1 * mebi, 7 * mebi}) {
            for (const BroadcastMode broadcast : {BroadcastMode::none, BroadcastMode::stimuli}) {
                GridScenario scenario;
                scenario.cell.ate.channels = channels;
                scenario.cell.ate.vector_memory_depth = depth;
                scenario.options.threads = 1;
                scenario.options.broadcast = broadcast;
                const Outcome got = solve(tables, scenario);
                ASSERT_EQ(got.json.rfind("error", 0), std::string::npos) << got.json;
                expect_same(got, solve(SocTimeTables(soc, TableBuild::fast, 1), scenario),
                            std::to_string(channels) + "x" + std::to_string(depth));
                ++solved;
            }
        }
    }
    const PackMemo& memo = tables.pack_memo();
    EXPECT_EQ(memo.plan_count(), solved);
    EXPECT_GT(memo.charged_words(), 2048U * 10U);
    EXPECT_LE(memo.charged_words(), memo.capacity_words());
    EXPECT_EQ(memo.capacity_words(), 131072U);
}

} // namespace
} // namespace mst
