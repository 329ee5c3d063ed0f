// Tests of the scenario runner: deterministic ordering, thread-count
// invariance, per-scenario error isolation, and shared table sets.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "report/solution_json.hpp"
#include "scenario/scenario_runner.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"

namespace mst {
namespace {

Scenario scenario_of(std::string name, Soc soc)
{
    Scenario scenario;
    scenario.name = std::move(name);
    scenario.soc = std::make_shared<const Soc>(std::move(soc));
    return scenario;
}

/// A mixed workload: benchmark SOCs and random SOCs across several
/// testers, long enough that an N-thread run genuinely interleaves.
std::vector<Scenario> mixed_scenarios()
{
    std::vector<Scenario> scenarios;
    const ChannelCount channel_grid[] = {64, 256, 512};
    for (const std::string soc_name : {"d695", "p22810", "p34392"}) {
        for (const ChannelCount channels : channel_grid) {
            Scenario scenario = scenario_of(soc_name + "@" + std::to_string(channels),
                                            make_benchmark_soc(soc_name));
            scenario.cell.ate.channels = channels;
            scenario.cell.ate.vector_memory_depth = 2 * mebi;
            scenarios.push_back(std::move(scenario));
        }
    }
    for (std::size_t i = 0; i < std::size(test_seeds::property_cases); ++i) {
        Scenario scenario = scenario_of("random" + std::to_string(i),
                                        random_soc(test_seeds::property_cases[i], 12));
        scenario.cell.ate.channels = 128;
        scenario.cell.ate.vector_memory_depth = 100'000;
        scenarios.push_back(std::move(scenario));
    }
    return scenarios;
}

/// Byte-comparable rendering of a run (solution JSON is deterministic
/// with fixed key order, so string equality is exact).
std::string fingerprint(const std::vector<Scenario>& scenarios,
                        const std::vector<ScenarioResult>& results)
{
    EXPECT_EQ(scenarios.size(), results.size());
    std::string text;
    for (std::size_t i = 0; i < results.size(); ++i) {
        text += scenarios[i].name;
        text += '|';
        text += results[i].ok() ? solution_to_json(*results[i].solution) : results[i].error;
        text += '\n';
    }
    return text;
}

TEST(ScenarioRunner, ResultsMatchInputOrder)
{
    const std::vector<Scenario> scenarios = mixed_scenarios();
    const std::vector<ScenarioResult> results = run_scenarios(scenarios, 4);
    ASSERT_EQ(results.size(), scenarios.size());
    // Slot i holds what scenario i yields when run on its own.
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::vector<Scenario> alone = {scenarios[i]};
        EXPECT_EQ(fingerprint(alone, {results[i]}), fingerprint(alone, run_scenarios(alone, 1)))
            << "slot " << i;
    }
}

TEST(ScenarioRunner, OneThreadVersusManyIsByteIdentical)
{
    const std::vector<Scenario> scenarios = mixed_scenarios();
    const std::string sequential = fingerprint(scenarios, run_scenarios(scenarios, 1));
    for (const int threads : {2, 4, 8, 0 /* hardware_concurrency */}) {
        EXPECT_EQ(sequential, fingerprint(scenarios, run_scenarios(scenarios, threads)))
            << "threads=" << threads;
    }
}

TEST(ScenarioRunner, RepeatedRunsAreDeterministic)
{
    const std::vector<Scenario> scenarios = mixed_scenarios();
    EXPECT_EQ(fingerprint(scenarios, run_scenarios(scenarios, 8)),
              fingerprint(scenarios, run_scenarios(scenarios, 8)));
}

TEST(ScenarioRunner, InfeasibleAndInvalidScenariosDoNotPoisonTheRun)
{
    std::vector<Scenario> scenarios;
    scenarios.push_back(scenario_of("feasible", make_benchmark_soc("d695")));
    {
        // p93791 needs far more than 2 channels x 10K vectors: infeasible.
        Scenario bad = scenario_of("infeasible", make_benchmark_soc("p93791"));
        bad.cell.ate.channels = 2;
        bad.cell.ate.vector_memory_depth = 10'000;
        scenarios.push_back(std::move(bad));
    }
    {
        Scenario invalid = scenario_of("invalid", make_benchmark_soc("d695"));
        invalid.cell.ate.test_clock_hz = 0; // fails AteSpec::validate()
        scenarios.push_back(std::move(invalid));
    }
    scenarios.push_back(scenario_of("feasible-too", make_benchmark_soc("p22810")));

    const std::vector<ScenarioResult> results = run_scenarios(scenarios, 4);
    ASSERT_EQ(results.size(), 4u);

    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[0].error.empty());

    EXPECT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].error_kind, SweepErrorKind::infeasible);
    EXPECT_FALSE(results[1].error.empty());

    EXPECT_FALSE(results[2].ok());
    EXPECT_EQ(results[2].error_kind, SweepErrorKind::validation);

    EXPECT_TRUE(results[3].ok());
    EXPECT_EQ(results[3].solution->soc_name, "p22810");
}

TEST(ScenarioRunner, SharedSocMatchesPerScenarioSoc)
{
    // One shared Soc pointer (one table set) must give the same results
    // as a fresh Soc per scenario.
    const std::shared_ptr<const Soc> shared =
        std::make_shared<const Soc>(make_benchmark_soc("p22810"));
    std::vector<Scenario> sharing;
    std::vector<Scenario> separate;
    for (const ChannelCount channels : {128, 256, 512}) {
        Scenario scenario;
        scenario.name = "p22810@" + std::to_string(channels);
        scenario.soc = shared;
        scenario.cell.ate.channels = channels;
        sharing.push_back(scenario);
        scenario.soc = std::make_shared<const Soc>(make_benchmark_soc("p22810"));
        separate.push_back(std::move(scenario));
    }
    EXPECT_EQ(fingerprint(sharing, run_scenarios(sharing, 3)),
              fingerprint(separate, run_scenarios(separate, 3)));
}

TEST(ScenarioRunner, ScenarioWithoutSocReportsValidationError)
{
    Scenario scenario;
    scenario.name = "null-soc";
    const std::vector<ScenarioResult> results = run_scenarios({scenario}, 2);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].error_kind, SweepErrorKind::validation);
    EXPECT_NE(results[0].error.find("no SOC"), std::string::npos);
}

TEST(ScenarioRunner, EmptyListYieldsNoResults)
{
    EXPECT_TRUE(run_scenarios({}, 8).empty());
}

} // namespace
} // namespace mst
