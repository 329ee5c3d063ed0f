// Unit tests for the report layer's ASCII tables.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "report/table.hpp"

namespace mst {
namespace {

TEST(TableReport, AlignsColumns)
{
    Table table({"name", "k"});
    table.add_row({"d695", "28"});
    table.add_row({"p93791", "58"});
    const std::string text = table.to_string();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
    // Numeric column is right-aligned: "28" must be preceded by a space
    // pad to the width of the header/body maximum.
    EXPECT_NE(text.find("d695    28"), std::string::npos) << text;
}

TEST(TableReport, RowCount)
{
    Table table({"a"});
    EXPECT_EQ(table.row_count(), 0u);
    table.add_row({"x"});
    EXPECT_EQ(table.row_count(), 1u);
}

TEST(TableReport, RejectsEmptyHeader)
{
    EXPECT_THROW(Table({}), ValidationError);
}

TEST(TableReport, RejectsMismatchedRow)
{
    Table table({"a", "b"});
    EXPECT_THROW(table.add_row({"only-one"}), ValidationError);
    EXPECT_THROW(table.add_row({"1", "2", "3"}), ValidationError);
}

TEST(TableReport, StreamOperatorMatchesToString)
{
    Table table({"x"});
    table.add_row({"1"});
    std::ostringstream out;
    out << table;
    EXPECT_EQ(out.str(), table.to_string());
}

} // namespace
} // namespace mst
