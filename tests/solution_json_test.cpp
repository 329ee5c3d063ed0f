// Tests for the JSON solution exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

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

TEST(SolutionJson, EscapesControlCharactersAsUnicode)
{
    std::string text;
    for (int ch = 0; ch < 0x20; ++ch) {
        text += static_cast<char>(ch);
    }
    text += "plain \x7f\xc3\xa9";
    std::string want;
    for (int ch = 0; ch < 0x20; ++ch) {
        char buffer[8];
        switch (ch) {
        case '\n': want += "\\n"; break;
        case '\r': want += "\\r"; break;
        case '\t': want += "\\t"; break;
        default:
            std::snprintf(buffer, sizeof buffer, "\\u%04x", ch);
            want += buffer;
        }
    }
    want += "plain \x7f\xc3\xa9";
    EXPECT_EQ(json_escape(text), want);
    std::string appended = "[";
    append_json_escaped(appended, text);
    EXPECT_EQ(appended, "[" + want);
}

/// printf's `%.6g`: the format json_number promises.
std::string printf_g6(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    return buffer;
}

TEST(SolutionJson, NumbersPrintAsPrintfG6)
{
    std::vector<double> values = {0.0,
                                  -0.0,
                                  1.0,
                                  -1.0,
                                  0.5,
                                  123456.0,
                                  1234567.0,
                                  999999.5,
                                  9999995.0,
                                  0.0001,
                                  0.00001,
                                  0.000123456789,
                                  1e-5,
                                  1e16,
                                  std::numeric_limits<double>::min(),
                                  std::numeric_limits<double>::denorm_min(),
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::lowest(),
                                  std::numeric_limits<double>::epsilon(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()};
    // Powers of ten and their neighbours, across the whole range.
    for (int exponent = -320; exponent <= 308; ++exponent) {
        const double power = std::pow(10.0, exponent);
        values.insert(values.end(), {power, -power, std::nextafter(power, 0.0),
                                     std::nextafter(power, HUGE_VAL)});
    }
    // Integers, including the ones %.6g has to round.
    for (std::int64_t i = -2000; i <= 2000; ++i) {
        values.push_back(static_cast<double>(i));
        values.push_back(static_cast<double>(i * 99'991));
        values.push_back(static_cast<double>(i * 1'000'003'001LL));
    }
    // Random doubles: uniform bit patterns (subnormals and every
    // exponent), then the magnitudes solutions print.
    std::mt19937_64 bits(20240611);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t pattern = bits();
        double value = 0;
        std::memcpy(&value, &pattern, sizeof value);
        if (!std::isnan(value)) {
            values.push_back(value);
        }
        values.push_back(std::ldexp(static_cast<double>(pattern >> 11), -1074));
        const double unit = static_cast<double>(pattern >> 11) / 9007199254740992.0;
        values.push_back(unit * 1e5);
        values.push_back(-unit * 1e-3);
        values.push_back(std::round(unit * 1e9) / 1e3);
    }
    for (const double value : values) {
        std::string appended = "x";
        append_json_number(appended, value);
        ASSERT_EQ(json_number(value), printf_g6(value)) << std::hexfloat << value;
        ASSERT_EQ(appended, "x" + printf_g6(value)) << std::hexfloat << value;
    }
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
