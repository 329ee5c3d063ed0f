// Tests for the JSON solution exporter.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "core/optimizer.hpp"
#include "report/solution_json.hpp"
#include "service/protocol.hpp"
#include "soc/d695.hpp"

namespace mst {
namespace {

Solution demo_solution()
{
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 64 * kibi;
    return optimize_multi_site(make_d695(), cell);
}

TEST(SolutionJson, ContainsAllTopLevelKeys)
{
    const std::string json = solution_to_json(demo_solution());
    for (const char* key :
         {"\"soc\"", "\"sites\"", "\"channels_per_site\"", "\"test_cycles\"",
          "\"manufacturing_time_s\"", "\"devices_per_hour\"", "\"step1\"", "\"erpct\"",
          "\"tams\"", "\"site_curve\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

TEST(SolutionJson, ValuesMatchSolution)
{
    const Solution solution = demo_solution();
    const std::string json = solution_to_json(solution);
    EXPECT_NE(json.find("\"soc\": \"d695\""), std::string::npos);
    EXPECT_NE(json.find("\"sites\": " + std::to_string(solution.sites)), std::string::npos);
    EXPECT_NE(json.find("\"channels_per_site\": " + std::to_string(solution.channels_per_site)),
              std::string::npos);
    // One TAM entry per group, one curve entry per examined site count.
    std::size_t tams = 0;
    for (std::size_t at = json.find("\"wires\""); at != std::string::npos;
         at = json.find("\"wires\"", at + 1)) {
        ++tams;
    }
    EXPECT_EQ(tams, solution.groups.size());
}

TEST(SolutionJson, BalancedBracesAndQuotes)
{
    const std::string json = solution_to_json(demo_solution());
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(SolutionJson, EscapesHostileNames)
{
    Solution solution = demo_solution();
    solution.soc_name = "evil\"\\\nname";
    const std::string json = solution_to_json(solution);
    EXPECT_NE(json.find("evil\\\"\\\\\\nname"), std::string::npos);
}

TEST(SolutionJson, Deterministic)
{
    EXPECT_EQ(solution_to_json(demo_solution()), solution_to_json(demo_solution()));
}

std::string read_file(const std::string& path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file) << path;
    return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

/// The solution `mst optimize --soc d695 <flags>` prints with --json:
/// the CLI's flag bindings, one table set that outlives the solve.
std::string cli_optimize_json(const cli::Flags& flags)
{
    const Soc soc = make_d695();
    const TestCell cell = protocol::cell_from_flags(flags);
    const SocTimeTables tables(soc);
    return solution_to_json(
        optimize_multi_site(tables, cell, protocol::options_from_flags(flags)));
}

// `mst optimize --json` bytes, pinned by files the earlier writer produced.
// The 7M cell is one TAM of all ten modules; at 32K the exact pass finds
// one wire fewer than the greedy, so its groups print other name lists.
TEST(SolutionJson, MatchesCommittedOptimizeOutput)
{
    const std::string data = MST_TEST_DATA_DIR;
    EXPECT_EQ(cli_optimize_json({{"channels", "512"}, {"depth", "7M"}}),
              read_file(data + "/optimize_d695_512x7M.golden.json"));
    const std::string exact =
        cli_optimize_json({{"channels", "512"}, {"depth", "32K"}, {"exact", ""}});
    EXPECT_NE(exact.find("\"gap\": 1,"), std::string::npos);
    EXPECT_EQ(exact, read_file(data + "/optimize_d695_512x32K_exact.golden.json"));
}

// The module names are shared with the table set, not borrowed from the
// SOC: a solution whose SOC and tables were temporaries still prints them.
TEST(SolutionJson, NamesOutliveTheSocAndTables)
{
    TestCell cell;
    cell.ate.channels = 512;
    cell.ate.vector_memory_depth = 32 * kibi;
    OptimizeOptions options;
    options.exact = true;
    const Solution orphan = optimize_multi_site(make_d695(), cell, options);

    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    const Solution kept = optimize_multi_site(tables, cell, options);
    EXPECT_EQ(orphan.module_names->size(), 10u);
    EXPECT_EQ(solution_to_json(orphan), solution_to_json(kept));
    EXPECT_EQ(solution_to_json(orphan, JsonStyle::compact),
              solution_to_json(kept, JsonStyle::compact));
}

// Every solution over one table set shares the set's one names table.
TEST(SolutionJson, SolutionsShareTheTableSetNames)
{
    const Soc soc = make_d695();
    const SocTimeTables tables(soc);
    TestCell cell;
    cell.ate.channels = 256;
    const Solution first = optimize_multi_site(tables, cell);
    cell.ate.vector_memory_depth = 64 * kibi;
    const Solution second = optimize_multi_site(tables, cell);
    EXPECT_EQ(first.module_names, tables.module_names());
    EXPECT_EQ(second.module_names, tables.module_names());
}

} // namespace
} // namespace mst
