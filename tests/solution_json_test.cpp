// Tests for the JSON solution exporter.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "report/module_names.hpp"
#include "report/solution_json.hpp"
#include "service/protocol.hpp"
#include "soc/d695.hpp"
#include "soc/generator.hpp"
#include "wrapper/erpct.hpp"

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

/// `soc` with module m renamed to names[m].
Soc renamed(const Soc& soc, const std::vector<std::string>& names)
{
    std::vector<Module> modules;
    for (std::size_t m = 0; m < soc.modules().size(); ++m) {
        const Module& module = soc.modules()[m];
        modules.emplace_back(names[m], module.inputs(), module.outputs(), module.bidirs(),
                             module.patterns(), module.scan_chain_lengths());
    }
    return Soc(soc.name(), std::move(modules));
}

/// Ten module names that need every kind of escape, and some that need
/// none: quotes, backslashes, newlines, tabs, other control bytes, DEL
/// and UTF-8 (written as is).
std::vector<std::string> hostile_names()
{
    return {"q\"uote",  "back\\slash", "new\nline",  "tab\tbed", "ctl\x01",
            "del\x7f",  "caf\xc3\xa9",   "\xe6\xa8\xa1\xe5\x9d\x97", "mix\"\\\n\t\x01\x7f\x1f",
            "plain"};
}

TEST(ModuleNamesTable, QuotedEntriesAreTheEscapedNames)
{
    const std::vector<std::string> names = hostile_names();
    const ModuleNames table(renamed(make_d695(), names));
    ASSERT_EQ(table.size(), names.size());
    std::size_t quoted_bytes = 0;
    for (std::size_t m = 0; m < names.size(); ++m) {
        const int index = static_cast<int>(m);
        EXPECT_EQ(table.name(index), names[m]);
        EXPECT_EQ(table.quoted(index), '"' + json_escape(names[m]) + '"') << m;
        quoted_bytes += table.quoted(index).size();
    }
    EXPECT_EQ(table.quoted_bytes(), quoted_bytes);

    // A list is the quoted entries joined by ", ", sized exactly.
    const std::vector<int> members = {9, 0, 8, 3, 7, 1, 6, 2, 5, 4};
    std::string want = "[";
    for (std::size_t i = 0; i < members.size(); ++i) {
        want += (i == 0 ? "\"" : ", \"") + json_escape(names[members[i]]) + '"';
    }
    std::string got = "[";
    table.append_list(got, members);
    EXPECT_EQ(got, want);
    EXPECT_EQ(table.list_bytes(members), want.size() - 1);
    for (const std::vector<int>& list : {std::vector<int>{}, std::vector<int>{8}}) {
        std::string one;
        table.append_list(one, list);
        EXPECT_EQ(one.size(), table.list_bytes(list));
    }
}

/// The solution writer's name lists, rebuilt by escaping every name per
/// member: `plain` is the document of a solution whose modules are named
/// "@<index>@", and each of those quoted markers becomes the quoted,
/// escaped name.
std::string escaped_per_name(std::string plain, const std::vector<std::string>& names)
{
    for (std::size_t m = 0; m < names.size(); ++m) {
        const std::string marker = "\"@" + std::to_string(m) + "@\"";
        const std::string value = '"' + json_escape(names[m]) + '"';
        for (std::size_t at = plain.find(marker); at != std::string::npos;
             at = plain.find(marker, at + value.size())) {
            plain.replace(at, marker.size(), value);
        }
    }
    return plain;
}

// A solution over an SOC whose names need escapes serializes exactly as
// a writer that escapes each name per member would, TAM lists and exact
// groups alike, and into exact-size storage.
TEST(ModuleNamesTable, DocumentMatchesAPerNameEscapingWriter)
{
    const std::vector<std::string> names = hostile_names();
    std::vector<std::string> markers;
    for (std::size_t m = 0; m < names.size(); ++m) {
        markers.push_back("@" + std::to_string(m) + "@");
    }
    TestCell cell;
    cell.ate.channels = 512;
    cell.ate.vector_memory_depth = 32 * kibi;
    OptimizeOptions options;
    options.exact = true;
    const Solution hostile = optimize_multi_site(renamed(make_d695(), names), cell, options);
    const Solution marked = optimize_multi_site(renamed(make_d695(), markers), cell, options);
    ASSERT_TRUE(hostile.exact.has_value());
    ASSERT_GT(hostile.exact->gap, 0); // the exact groups print their own lists
    for (const JsonStyle style : {JsonStyle::pretty, JsonStyle::compact}) {
        const std::string got = solution_to_json(hostile, style);
        EXPECT_EQ(got, escaped_per_name(solution_to_json(marked, style), names));
        EXPECT_NE(got.find("\\u0001"), std::string::npos);
        EXPECT_EQ(got.capacity(), got.size());
    }
}

TEST(ModuleNamesTable, ConcurrentFirstUseBuildsOneTable)
{
    const Soc soc = random_soc(test_seeds::pack_memo[0], 500);
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    constexpr std::size_t threads = 8;
    std::vector<const ModuleNames*> seen(threads, nullptr);
    std::vector<int> pins(threads, 0);
    std::atomic<std::size_t> waiting{threads};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            // Start together, so the first calls race.
            waiting.fetch_sub(1);
            while (waiting.load() != 0) {
            }
            seen[t] = tables.module_names().get();
            pins[t] = tables.estimated_functional_pins();
        });
    }
    for (std::thread& worker : workers) {
        worker.join();
    }
    ASSERT_NE(seen[0], nullptr);
    EXPECT_EQ(seen[0]->size(), static_cast<std::size_t>(soc.module_count()));
    for (std::size_t t = 0; t < threads; ++t) {
        EXPECT_EQ(seen[t], seen[0]) << t;
        EXPECT_EQ(pins[t], estimate_functional_pins(soc)) << t;
    }
}

} // namespace
} // namespace mst
