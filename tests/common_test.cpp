// Tests for the common utilities: error macros, RNG, Span2D, tables, and
// the CLI parser.

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "common/table.hpp"

namespace rcs {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(RCS_CHECK(1 + 1 == 2));
  try {
    RCS_CHECK_MSG(false, "n = " << 42);
    FAIL() << "expected rcs::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("n = 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("common_test.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(9);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[rng.uniform_index(10)];
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Span2D, IndexingAndBlocks) {
  std::vector<double> buf(12);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = double(i);
  Span2D<double> v(buf.data(), 3, 4);
  EXPECT_EQ(v(0, 0), 0.0);
  EXPECT_EQ(v(2, 3), 11.0);
  auto blk = v.block(1, 1, 2, 2);
  EXPECT_EQ(blk(0, 0), 5.0);
  EXPECT_EQ(blk(1, 1), 10.0);
  EXPECT_EQ(blk.stride(), 4u);
  blk(0, 0) = -1.0;
  EXPECT_EQ(v(1, 1), -1.0);
  // A shape-only view (null data) keeps its shape through blocks and never
  // offsets its null pointer.
  const Span2D<double> shape(nullptr, 3, 4);
  const auto sblk = shape.block(1, 1, 2, 2);
  EXPECT_EQ(sblk.data(), nullptr);
  EXPECT_EQ(sblk.rows(), 2u);
  EXPECT_EQ(sblk.cols(), 2u);
  EXPECT_EQ(sblk.stride(), 4u);
}

TEST(Span2D, ConstConversion) {
  std::vector<double> buf(4, 1.0);
  Span2D<double> v(buf.data(), 2, 2);
  Span2D<const double> cv = v;
  EXPECT_EQ(cv(1, 1), 1.0);
}

TEST(Table, AsciiLayout) {
  Table t("demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  Table t;
  t.set_header({"x", "y"});
  t.add_row({"has,comma", "has\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(Table, RowWidthEnforced) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.14");
  EXPECT_EQ(Table::num(1234567LL), "1234567");
  EXPECT_EQ(Table::seconds(2.5), "2.5 s");
  EXPECT_EQ(Table::seconds(2.5e-3), "2.5 ms");
  EXPECT_EQ(Table::seconds(2.5e-6), "2.5 us");
}

TEST(Cli, ParsesTypedFlags) {
  Cli cli("test");
  cli.add_int("n", 10, "size");
  cli.add_string("mode", "hybrid", "mode");
  cli.add_bool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--n=20", "--verbose"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), 20);
  EXPECT_EQ(cli.get_string("mode"), "hybrid");
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli;
  cli.add_int("n", 1, "");
  const char* argv[] = {"prog", "--bogus", "3"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, RejectsBadValue) {
  Cli cli;
  cli.add_int("n", 1, "");
  const char* argv[] = {"prog", "--n", "abc"};
  cli.parse(3, argv);
  EXPECT_THROW(cli.get_int("n"), Error);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli;
  cli.add_int("n", 1, "");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, ExplicitBoolValue) {
  Cli cli;
  cli.add_bool("flag", true, "");
  const char* argv[] = {"prog", "--flag", "false"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_FALSE(cli.get_bool("flag"));
}

}  // namespace
}  // namespace rcs
