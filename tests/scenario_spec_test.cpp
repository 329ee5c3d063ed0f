// Tests of the declarative scenario layer: spec parsing (sections,
// defaults, line-accurate errors), cross-product expansion order and
// naming, SOC-sharing, and the scenario-list fingerprint.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "scenario/scenario_spec.hpp"

namespace mst {
namespace {

ScenarioSpec parse(const std::string& text)
{
    std::istringstream in(text);
    return parse_scenario_spec(in);
}

/// The ValidationError message produced by parsing `text`, or "" when
/// parsing unexpectedly succeeds.
std::string parse_error(const std::string& text)
{
    try {
        (void)parse(text);
    } catch (const ValidationError& error) {
        return error.what();
    }
    return "";
}

TEST(ScenarioSpecParser, ReadsSectionsKeysAndLists)
{
    const ScenarioSpec spec = parse("# comment\n"
                                    "[sweep]\n"
                                    "name = demo\n"
                                    "\n"
                                    "[soc]\n"
                                    "name = d695\n"
                                    "\n"
                                    "[soc]\n"
                                    "generate = gen10x\n"
                                    "modules = 100\n"
                                    "shape = narrow_deep\n"
                                    "\n"
                                    "[cells]\n"
                                    "channels = 256, 512\n"
                                    "depths = 8M 32M\n"
                                    "clock = 20e6\n"
                                    "\n"
                                    "[cell big-mem]\n"
                                    "channels = 1024\n"
                                    "depth = 64M\n"
                                    "\n"
                                    "[variant plain]\n"
                                    "[variant broadcast]\n"
                                    "broadcast = true\n");
    EXPECT_EQ(spec.name, "demo");

    ASSERT_EQ(spec.socs.size(), 2u);
    EXPECT_EQ(spec.socs[0].kind, SocSource::Kind::spec);
    EXPECT_EQ(spec.socs[0].spec, "d695");
    EXPECT_EQ(spec.socs[0].label, "d695"); // defaults to the spec name
    EXPECT_EQ(spec.socs[1].kind, SocSource::Kind::generator);
    EXPECT_EQ(spec.socs[1].label, "gen10x");
    EXPECT_EQ(spec.socs[1].modules, 100);
    EXPECT_EQ(spec.socs[1].shape, ScaledShape::narrow_deep);

    // [cells] is channels-major; the named [cell] appends after it.
    ASSERT_EQ(spec.cells.size(), 5u);
    EXPECT_EQ(spec.cells[0].cell.ate.channels, 256);
    EXPECT_EQ(spec.cells[0].cell.ate.vector_memory_depth, 8 * mebi);
    EXPECT_EQ(spec.cells[1].cell.ate.channels, 256);
    EXPECT_EQ(spec.cells[1].cell.ate.vector_memory_depth, 32 * mebi);
    EXPECT_EQ(spec.cells[2].cell.ate.channels, 512);
    EXPECT_EQ(spec.cells[3].cell.ate.vector_memory_depth, 32 * mebi);
    EXPECT_DOUBLE_EQ(spec.cells[0].cell.ate.test_clock_hz, 20e6);
    EXPECT_TRUE(spec.cells[0].label.empty()); // derived at expansion
    EXPECT_EQ(spec.cells[4].label, "big-mem");
    EXPECT_EQ(spec.cells[4].cell.ate.channels, 1024);
    EXPECT_EQ(spec.cells[4].cell.ate.vector_memory_depth, 64 * mebi);

    ASSERT_EQ(spec.variants.size(), 2u);
    EXPECT_EQ(spec.variants[0].label, "plain");
    EXPECT_EQ(spec.variants[0].options.broadcast, BroadcastMode::none);
    EXPECT_EQ(spec.variants[1].label, "broadcast");
    EXPECT_EQ(spec.variants[1].options.broadcast, BroadcastMode::stimuli);
}

TEST(ScenarioSpecParser, DefaultsToOnePlainVariant)
{
    const ScenarioSpec spec = parse("[soc]\nname = d695\n[cells]\n");
    ASSERT_EQ(spec.variants.size(), 1u);
    EXPECT_EQ(spec.variants[0].label, "plain");
    // And the [cells] grid defaults to the canonical 512 x 7M tester.
    ASSERT_EQ(spec.cells.size(), 1u);
    EXPECT_EQ(spec.cells[0].cell.ate.channels, 512);
    EXPECT_EQ(spec.cells[0].cell.ate.vector_memory_depth, 7 * mebi);
}

TEST(ScenarioSpecParser, ErrorsAreLineAccurate)
{
    // Line 3 holds the bad entry.
    const std::string message = parse_error("[soc]\n"
                                            "name = d695\n"
                                            "modules = not-a-number\n");
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
}

TEST(ScenarioSpecParser, SuggestsNearestKeyForTypos)
{
    const std::string message = parse_error("[cells]\nchanels = 256\n");
    EXPECT_NE(message.find("unknown [cells] key 'chanels'"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean 'channels'?"), std::string::npos) << message;

    const std::string section = parse_error("[varient broadcast]\n");
    EXPECT_NE(section.find("did you mean '[variant]'?"), std::string::npos) << section;
}

TEST(ScenarioSpecParser, RejectsEntriesBeforeAnySection)
{
    const std::string message = parse_error("name = demo\n");
    EXPECT_NE(message.find("line 1"), std::string::npos) << message;
    EXPECT_NE(message.find("before any [section]"), std::string::npos) << message;
}

TEST(ScenarioSpecParser, RejectsConflictingSocKinds)
{
    const std::string message = parse_error("[soc]\nname = d695\ngenerate = gen10x\n");
    EXPECT_NE(message.find("exactly one of name/generate/random"), std::string::npos)
        << message;
}

TEST(ScenarioSpecExpand, NamesAndOrderAreSocMajorVariantMinor)
{
    ScenarioSpec spec;
    spec.name = "order";
    spec.socs.push_back(SocSource::random("r17", 17, 8));
    spec.socs.push_back(SocSource::random("r23", 23, 8));
    CellPoint small;
    small.cell.ate.channels = 128;
    small.cell.ate.vector_memory_depth = 100 * kibi;
    spec.cells.push_back(small);
    CellPoint named = small;
    named.label = "budget";
    spec.cells.push_back(named);
    spec.variants.push_back({"plain", {}});
    OptionVariant broadcast;
    broadcast.label = "broadcast";
    broadcast.options.broadcast = BroadcastMode::stimuli;
    spec.variants.push_back(broadcast);

    const std::vector<Scenario> scenarios = expand(spec);
    ASSERT_EQ(scenarios.size(), 8u);
    const std::vector<std::string> expected = {
        "r17/128x100K/plain",    "r17/128x100K/broadcast", "r17/budget/plain",
        "r17/budget/broadcast",  "r23/128x100K/plain",     "r23/128x100K/broadcast",
        "r23/budget/plain",      "r23/budget/broadcast",
    };
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_EQ(scenarios[i].name, expected[i]) << "slot " << i;
        EXPECT_EQ(scenarios[i].name,
                  scenarios[i].soc_name + "/" +
                      scenarios[i].name.substr(scenarios[i].soc_name.size() + 1));
    }
    EXPECT_EQ(scenarios[0].variant, "plain");
    EXPECT_EQ(scenarios[1].variant, "broadcast");
    EXPECT_EQ(scenarios[1].options.broadcast, BroadcastMode::stimuli);
}

TEST(ScenarioSpecExpand, ResolvesEachSocSourceOnce)
{
    ScenarioSpec spec;
    spec.socs.push_back(SocSource::random("r17", 17, 8));
    CellPoint a;
    a.cell.ate.channels = 128;
    CellPoint b;
    b.cell.ate.channels = 256;
    spec.cells = {a, b};
    spec.variants.push_back({"plain", {}});

    const std::vector<Scenario> scenarios = expand(spec);
    ASSERT_EQ(scenarios.size(), 2u);
    // One shared immutable Soc per source, so table builds are shared.
    EXPECT_EQ(scenarios[0].soc.get(), scenarios[1].soc.get());
    EXPECT_EQ(scenarios[0].soc->module_count(), 8);
}

TEST(ScenarioSpecExpand, RejectsEmptySpecsAndDuplicateNames)
{
    ScenarioSpec empty;
    empty.name = "empty";
    EXPECT_THROW((void)expand(empty), ValidationError);

    ScenarioSpec duplicate;
    duplicate.name = "dup";
    duplicate.socs.push_back(SocSource::random("r17", 17, 8));
    CellPoint cell;
    cell.label = "same";
    duplicate.cells = {cell, cell};
    duplicate.variants.push_back({"plain", {}});
    EXPECT_THROW((void)expand(duplicate), ValidationError);

    // expand_all rejects collisions across specs too.
    ScenarioSpec one;
    one.socs.push_back(SocSource::random("r17", 17, 8));
    one.cells = {cell};
    one.variants.push_back({"plain", {}});
    EXPECT_THROW((void)expand_all({one, one}), ValidationError);
}

TEST(ScenarioSpecSource, SubsetResolvesToRenamedPrefix)
{
    SocSource source = SocSource::by_spec("p22810", "p22810x12");
    source.subset_modules = 12;
    const Soc soc = source.resolve();
    EXPECT_EQ(soc.module_count(), 12);
    EXPECT_EQ(soc.name(), "p22810x12");

    source.subset_modules = 100'000;
    EXPECT_THROW((void)source.resolve(), ValidationError);
}

TEST(ScenarioSpecSource, GeneratorAndRandomHonorModuleCounts)
{
    EXPECT_EQ(SocSource::generated("gen10x", 100, ScaledShape::classic).resolve().module_count(),
              100);
    EXPECT_EQ(SocSource::random("r31", 31, 14).resolve().module_count(), 14);
}

TEST(ScenarioSpecFingerprint, StableAndNameSensitive)
{
    ScenarioSpec spec;
    spec.socs.push_back(SocSource::random("r17", 17, 8));
    CellPoint cell;
    cell.label = "a";
    spec.cells = {cell};
    spec.variants.push_back({"plain", {}});

    const std::vector<Scenario> scenarios = expand(spec);
    EXPECT_EQ(scenario_list_fingerprint(scenarios), scenario_list_fingerprint(scenarios));

    ScenarioSpec other = spec;
    other.cells[0].label = "b";
    EXPECT_NE(scenario_list_fingerprint(scenarios),
              scenario_list_fingerprint(expand(other)));
}

} // namespace
} // namespace mst
