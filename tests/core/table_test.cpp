#include "core/table.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/error.hpp"
#include "temp_dir.hpp"

namespace mts {
namespace {

Table sample_table() {
  Table table("Demo", {"City", "Nodes"});
  table.add_row({"Boston", "11171"});
  table.add_row({"Chicago", "29299"});
  return table;
}

TEST(Table, RejectsMismatchedRow) {
  Table table("T", {"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), PreconditionViolation);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table("T", {}), PreconditionViolation);
}

TEST(Table, TextRenderingContainsAlignedCells) {
  std::ostringstream out;
  sample_table().render_text(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("== Demo =="), std::string::npos);
  EXPECT_NE(text.find("Boston"), std::string::npos);
  EXPECT_NE(text.find("29299"), std::string::npos);
}

TEST(Table, MarkdownRendering) {
  std::ostringstream out;
  sample_table().render_markdown(out);
  const std::string md = out.str();
  EXPECT_NE(md.find("### Demo"), std::string::npos);
  EXPECT_NE(md.find("| City | Nodes |"), std::string::npos);
  EXPECT_NE(md.find("| Boston | 11171 |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table table("T", {"name", "note"});
  table.add_row({"a,b", "say \"hi\""});
  std::ostringstream out;
  table.render_csv(out);
  EXPECT_EQ(out.str(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, SaveCsvCreatesDirectories) {
  const test::TempDir dir;
  const auto path = dir / "sub" / "out.csv";
  sample_table().save_csv(path.string());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "City,Nodes");
}

TEST(FormatFixed, RoundsToRequestedDecimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.145, 2), "3.15");  // round-half behavior of iostreams
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
}

}  // namespace
}  // namespace mts
