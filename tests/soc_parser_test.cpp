// Unit tests for the .soc parser and writer, including the round-trip
// property parse(write(soc)) == soc.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "soc/d695.hpp"
#include "soc/parser.hpp"
#include "soc/writer.hpp"

namespace mst {
namespace {

constexpr const char* minimal_soc = R"(# a comment
soc demo
module alpha inputs 3 outputs 2 bidirs 1 patterns 7 scan 10 9
module beta inputs 1 outputs 1 patterns 2
end
)";

TEST(SocParser, ParsesMinimalFile)
{
    const Soc soc = parse_soc_string(minimal_soc);
    EXPECT_EQ(soc.name(), "demo");
    ASSERT_EQ(soc.module_count(), 2);
    const Module& alpha = soc.module(0);
    EXPECT_EQ(alpha.inputs(), 3);
    EXPECT_EQ(alpha.outputs(), 2);
    EXPECT_EQ(alpha.bidirs(), 1);
    EXPECT_EQ(alpha.patterns(), 7);
    ASSERT_EQ(alpha.scan_chain_count(), 2);
    EXPECT_EQ(alpha.scan_chain_lengths()[0], 10);
    EXPECT_EQ(alpha.scan_chain_lengths()[1], 9);
    EXPECT_EQ(soc.module(1).bidirs(), 0); // bidirs defaults to zero
}

TEST(SocParser, RejectsMissingEndAsTruncation)
{
    // A file that just stops (no 'end') reads as truncated; the error
    // points at the last line seen.
    try {
        (void)parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns 1\n", "cut.soc");
        FAIL() << "expected ParseError";
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), 2);
        EXPECT_EQ(error.file(), "cut.soc");
        EXPECT_NE(std::string(error.what()).find("end"), std::string::npos);
    }
}

TEST(SocParser, IgnoresCommentsAndBlankLines)
{
    const Soc soc = parse_soc_string(
        "\n# header\n  \nsoc x # trailing\nmodule m inputs 1 outputs 1 patterns 1 # eol\n\nend\n");
    EXPECT_EQ(soc.name(), "x");
    EXPECT_EQ(soc.module_count(), 1);
}

TEST(SocParser, FieldsInAnyOrder)
{
    const Soc soc =
        parse_soc_string("soc x\nmodule m patterns 5 outputs 2 inputs 3\nend\n");
    EXPECT_EQ(soc.module(0).patterns(), 5);
    EXPECT_EQ(soc.module(0).inputs(), 3);
}

TEST(SocParser, RejectsNegativeCountsWithLineNumbers)
{
    // Negative scan-chain lengths and pattern counts are diagnosed by the
    // parser itself, with the offending line, not by downstream Module
    // validation (which has no position information).
    try {
        (void)parse_soc_string("soc x\nmodule ok inputs 1 outputs 1 patterns 1 scan 4\n"
                               "module bad inputs 1 outputs 1 patterns 1 scan 4 -3\nend\n",
                               "neg.soc");
        FAIL() << "expected ParseError";
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), 3);
        EXPECT_NE(std::string(error.what()).find("non-negative"), std::string::npos);
    }
    try {
        (void)parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns -7\nend\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), 2);
    }
    EXPECT_THROW((void)parse_soc_string("soc x\nmodule m inputs -1 outputs 1 patterns 1\nend\n"),
                 ParseError);
}

TEST(SocParser, ErrorsCarryLineNumbers)
{
    try {
        (void)parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns oops\n", "t.soc");
        FAIL() << "expected ParseError";
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), 2);
        EXPECT_EQ(error.file(), "t.soc");
    }
}

TEST(SocParser, RejectsModuleBeforeSoc)
{
    EXPECT_THROW((void)parse_soc_string("module m inputs 1 outputs 1 patterns 1\n"), ParseError);
}

TEST(SocParser, RejectsDuplicateSocStatement)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nsoc b\n"), ParseError);
}

TEST(SocParser, RejectsUnknownStatement)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nwibble\n"), ParseError);
}

TEST(SocParser, RejectsUnknownModuleField)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1 patterns 1 clocks 2\n"),
                 ParseError);
}

TEST(SocParser, RejectsMissingValue)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs\n"), ParseError);
}

TEST(SocParser, RejectsMissingMandatoryFields)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1\n"), ParseError);
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m patterns 1\n"), ParseError);
}

TEST(SocParser, RejectsContentAfterEnd)
{
    EXPECT_THROW(
        (void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1 patterns 1\nend\nsoc b\n"),
        ParseError);
}

TEST(SocParser, RejectsMissingSoc)
{
    EXPECT_THROW((void)parse_soc_string("# nothing here\n"), ParseError);
}

TEST(SocParser, RejectsSemanticErrorsAsParseErrors)
{
    // Validation failures surface as ParseError with position info.
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1 patterns 0\n"),
                 ParseError);
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1 patterns 1 scan 0\n"),
                 ParseError);
}

TEST(SocParser, RejectsDuplicateModules)
{
    EXPECT_THROW((void)parse_soc_string("soc a\n"
                                        "module m inputs 1 outputs 1 patterns 1\n"
                                        "module m inputs 1 outputs 1 patterns 1\n"),
                 ParseError);
}

/// Expect `text` to fail with a ParseError on `line` whose message
/// contains `fragment`.
void expect_parse_error(const std::string& text, int line, const std::string& fragment)
{
    try {
        (void)parse_soc_string(text, "edge.soc");
        ADD_FAILURE() << "expected ParseError for: " << text;
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), line) << text;
        EXPECT_EQ(error.file(), "edge.soc");
        EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
            << error.what();
    }
}

TEST(SocParser, RejectsTerminalCountsAboveIntMax)
{
    // Terminal counts are ints: a wider value must not wrap silently
    // (4294967297 would otherwise read as 1 input).
    expect_parse_error("soc x\nmodule a inputs 4294967297 outputs 1 patterns 1\nend\n", 2,
                       "expected at most 2147483647 for 'inputs', got '4294967297'");
    expect_parse_error("soc x\n\nmodule a inputs 1 outputs 2147483648 patterns 1\nend\n", 3,
                       "'outputs'");
    expect_parse_error("soc x\nmodule a inputs 1 outputs 1 bidirs 9999999999 patterns 1\nend\n",
                       2, "'bidirs'");
    const Soc widest = parse_soc_string("soc x\nmodule a inputs 2147483647 outputs 0 patterns 1\nend\n");
    EXPECT_EQ(widest.module(0).inputs(), 2147483647);
    // Pattern counts and chain lengths stay 64-bit.
    const Soc wide = parse_soc_string(
        "soc x\nmodule a inputs 1 outputs 1 patterns 4294967297 scan 4294967297\nend\n");
    EXPECT_EQ(wide.module(0).patterns(), 4294967297);
    EXPECT_EQ(wide.module(0).scan_chain_lengths()[0], 4294967297);
}

TEST(SocParser, CrlfTabsAndGluedCommentsSplitLikeWhitespace)
{
    const Soc soc = parse_soc_string("soc demo#glued\r\n"
                                     "module\talpha\tinputs 3 outputs 2\t patterns 7 scan 10 9#tail\r\n"
                                     "\t\r\n"
                                     "module beta inputs 1 outputs 1 patterns 2 \f\v\r\n"
                                     "end#done\r\n");
    EXPECT_EQ(soc.name(), "demo");
    ASSERT_EQ(soc.module_count(), 2);
    EXPECT_EQ(soc.module(0).name(), "alpha");
    EXPECT_EQ(soc.module(0).patterns(), 7);
    EXPECT_EQ(soc.module(0).scan_chain_lengths(), (std::vector<FlipFlopCount>{10, 9}));
    EXPECT_EQ(soc.module(1).patterns(), 2);
    // A '#' glued to a value ends the line there, so the value is kept
    // and everything after it dropped.
    expect_parse_error("soc x\r\nmodule m inputs 1 outputs 1#patterns 3\r\nend\r\n", 2,
                       "must define inputs, outputs, and patterns");
}

TEST(SocParser, NoFinalNewlineAndCommentOnlyLines)
{
    const Soc soc = parse_soc_string("# header\n#\n   # indented\nsoc x\n# between\n"
                                     "module m inputs 1 outputs 1 patterns 1\nend");
    EXPECT_EQ(soc.name(), "x");
    EXPECT_EQ(soc.module_count(), 1);
    EXPECT_EQ(parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns 1\nend\n# tail")
                  .module_count(),
              1);
    // Line numbers count every line, the unterminated last one included.
    expect_parse_error("# c\nsoc x\nmodule m inputs 1 outputs 1 patterns 1", 3, "missing 'end'");
    expect_parse_error("soc x\nmodule m inputs 1 outputs 1 patterns 1\n\n", 3, "missing 'end'");
    expect_parse_error("# only comments\n\n#\n", 3, "missing 'soc' statement");
    expect_parse_error("", 0, "missing 'soc' statement");
    expect_parse_error("soc x\nend\nmodule m inputs 1 outputs 1 patterns 1", 3,
                       "content after 'end'");
}

TEST(SocParser, SignsLeadingZerosAndOverflow)
{
    const Soc soc = parse_soc_string(
        "soc x\nmodule m inputs +3 outputs 007 bidirs -0 patterns +0012 scan 0010 +5\nend\n");
    const Module& m = soc.module(0);
    EXPECT_EQ(m.inputs(), 3);
    EXPECT_EQ(m.outputs(), 7);
    EXPECT_EQ(m.bidirs(), 0);
    EXPECT_EQ(m.patterns(), 12);
    EXPECT_EQ(m.scan_chain_lengths(), (std::vector<FlipFlopCount>{10, 5}));
    EXPECT_EQ(parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns "
                               "9223372036854775807\nend\n")
                  .module(0)
                  .patterns(),
              9223372036854775807);

    // A 20-digit value overflows the 64-bit range: not an integer.
    expect_parse_error("soc x\nmodule m inputs 1 outputs 1 patterns 99999999999999999999\nend\n",
                       2, "expected an integer for 'patterns', got '99999999999999999999'");
    expect_parse_error("soc x\nmodule m inputs 1 outputs 1 patterns 1 scan 9223372036854775808\n",
                       2, "expected an integer for 'scan chain length'");
    // The most negative 64-bit value is an integer, just a negative one.
    expect_parse_error("soc x\nmodule m inputs 1 outputs 1 patterns -9223372036854775808\n", 2,
                       "expected a non-negative integer for 'patterns'");
    expect_parse_error("soc x\nmodule m inputs 1 outputs 1 patterns -9223372036854775809\n", 2,
                       "expected an integer for 'patterns'");
    for (const char* bad : {"+-5", "-+5", "++5", "+", "-", "5x", "0x10", "1e3", "1.0"}) {
        expect_parse_error(std::string("soc x\nmodule m inputs ") + bad +
                               " outputs 1 patterns 1\nend\n",
                           2, std::string("expected an integer for 'inputs', got '") + bad + "'");
    }
}

TEST(SocParser, FieldErrorsKeepTheirOrderAndMessages)
{
    expect_parse_error("soc x\nmodule\n", 2, "'module' requires a name");
    expect_parse_error("soc x\nsoc y\n", 2, "duplicate 'soc' statement");
    expect_parse_error("soc\n", 1, "'soc' requires exactly one name");
    expect_parse_error("soc x y\n", 1, "'soc' requires exactly one name");
    expect_parse_error("wibble\n", 1, "unknown statement 'wibble'");
    expect_parse_error("soc x\nmodule m inputs 1 outputs 1 patterns 1 clocks\n", 2,
                       "field 'clocks' is missing its value");
    // The value is parsed before the field name is checked.
    expect_parse_error("soc x\nmodule m clocks z\n", 2, "expected an integer for 'clocks'");
    expect_parse_error("soc x\nmodule m clocks 2\n", 2, "unknown module field 'clocks'");
    expect_parse_error("soc x\nmodule m inputs 1 outputs 1 patterns 0\nend\n", 2,
                       "at least one test pattern");
    expect_parse_error("soc x\nmodule m inputs 1 outputs 1 patterns 1\n"
                       "module m inputs 1 outputs 1 patterns 1\nend\n",
                       4, "duplicate module name 'm'");
}

TEST(SocParser, StreamAndStringParsersAgree)
{
    const std::string text = soc_to_string(make_d695());
    std::istringstream stream(text);
    const Soc from_stream = parse_soc(stream);
    EXPECT_EQ(soc_to_string(from_stream), text);
    EXPECT_EQ(soc_to_string(parse_soc_string(text)), text);
}

TEST(SocWriter, RoundTripsD695)
{
    const Soc original = make_d695();
    const Soc reparsed = parse_soc_string(soc_to_string(original));
    ASSERT_EQ(reparsed.module_count(), original.module_count());
    EXPECT_EQ(reparsed.name(), original.name());
    for (int m = 0; m < original.module_count(); ++m) {
        const Module& a = original.module(m);
        const Module& b = reparsed.module(m);
        EXPECT_EQ(a.name(), b.name());
        EXPECT_EQ(a.inputs(), b.inputs());
        EXPECT_EQ(a.outputs(), b.outputs());
        EXPECT_EQ(a.bidirs(), b.bidirs());
        EXPECT_EQ(a.patterns(), b.patterns());
        EXPECT_EQ(a.scan_chain_lengths(), b.scan_chain_lengths());
    }
}

TEST(SocWriter, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "/mst_writer_roundtrip.soc";
    const Soc original = make_d695();
    save_soc_file(path, original);
    const Soc loaded = load_soc_file(path);
    EXPECT_EQ(loaded.name(), original.name());
    EXPECT_EQ(loaded.module_count(), original.module_count());
    std::remove(path.c_str());
}

TEST(SocLoader, MissingFileThrows)
{
    EXPECT_THROW((void)load_soc_file("/nonexistent/dir/foo.soc"), ParseError);
}

} // namespace
} // namespace mst
