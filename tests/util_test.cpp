#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/format.hpp"
#include "support/temp_path.hpp"

namespace groupfel::util {
namespace {

TEST(CsvEscape, PassthroughForPlainFields) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("a b"), "a b");
}

TEST(CsvEscape, QuotesSpecialFields) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(FormatDouble, RoundTrips) {
  for (double v : {0.0, 1.0, -3.25, 1e-9, 123456.789}) {
    EXPECT_DOUBLE_EQ(std::stod(format_double(v)), v);
  }
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = test_support::temp_path(".csv");
  {
    CsvWriter csv(path, {"x", "y"});
    csv.row({1.0, 2.0});
    csv.row({3.0, 4.5});
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4.5");
  std::remove(path.c_str());
}

TEST(CsvWriter, MixedStringRows) {
  const std::string path = test_support::temp_path(".csv");
  {
    CsvWriter csv(path, {"method", "value"});
    csv.row_strings({"Group-FEL", "0.65"});
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "Group-FEL,0.65");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsArityMismatch) {
  const std::string path = test_support::temp_path(".csv");
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
  EXPECT_THROW(csv.row_strings({"x", "y", "z"}), std::invalid_argument);
  csv.flush();
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsEmptyColumns) {
  EXPECT_THROW(CsvWriter(test_support::temp_path(".csv"), {}),
               std::invalid_argument);
}

TEST(CsvWriter, FlushesOnDestruction) {
  const std::string path = test_support::temp_path(".csv");
  {
    CsvWriter csv(path, {"a"});
    csv.row({7.0});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a");
  std::remove(path.c_str());
}

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=0.5", "--rounds", "30", "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(flags.get_int("rounds", 0), 30);
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_EQ(flags.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, NumericValuesMustParseInFull) {
  const char* argv[] = {"prog", "--rounds=12abc", "--lr=0.1x", "--seeds=",
                        "--n=abc", "--big=99999999999999999999", "--neg=-3",
                        "--exp=1e-3"};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_THROW((void)flags.get_int("rounds", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("lr", 0.0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("seeds", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("exp", 0), std::invalid_argument);
  EXPECT_EQ(flags.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(flags.get_double("exp", 0.0), 1e-3);
}

TEST(Flags, ParseErrorNamesTheFlag) {
  const char* argv[] = {"prog", "--rounds=12abc"};
  Flags flags(2, const_cast<char**>(argv));
  try {
    (void)flags.get_int("rounds", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--rounds"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse_int("ENV_VAR", "42"), 42);
  EXPECT_THROW((void)parse_int("ENV_VAR", "4 2"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("ENV_VAR", ""), std::invalid_argument);
}

TEST(Flags, Positional) {
  const char* argv[] = {"prog", "file1", "--x=1", "file2"};
  Flags flags(4, const_cast<char**>(argv));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1");
  EXPECT_EQ(flags.positional()[1], "file2");
}

TEST(Format, NumAndFixed) {
  EXPECT_EQ(num(1.5), "1.5");
  EXPECT_EQ(fixed(1.23456, 2), "1.23");
  EXPECT_EQ(cat("a", 1, "b", 2.5), "a1b2.5");
}

TEST(AsciiPlot, ContainsLegendAndTitle) {
  Series s1{"alpha", {0, 1, 2}, {0, 1, 4}};
  Series s2{"beta", {0, 1, 2}, {4, 1, 0}};
  const std::string plot = ascii_plot({s1, s2}, "My Title", "x", "y");
  EXPECT_NE(plot.find("My Title"), std::string::npos);
  EXPECT_NE(plot.find("alpha"), std::string::npos);
  EXPECT_NE(plot.find("beta"), std::string::npos);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find('+'), std::string::npos);
}

TEST(AsciiPlot, HandlesEmptySeries) {
  const std::string plot = ascii_plot({}, "Empty", "x", "y");
  EXPECT_NE(plot.find("no data"), std::string::npos);
}

TEST(AsciiPlot, HandlesConstantSeries) {
  Series s{"flat", {0, 1}, {3, 3}};
  const std::string plot = ascii_plot({s}, "Flat", "x", "y");
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiTable, AlignsColumns) {
  const std::string table = ascii_table(
      "T", {"col", "longer_col"}, {{"a", "b"}, {"cccc", "d"}});
  EXPECT_NE(table.find("| col  |"), std::string::npos);
  EXPECT_NE(table.find("| cccc |"), std::string::npos);
}

}  // namespace
}  // namespace groupfel::util
