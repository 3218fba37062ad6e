#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/format.h"
#include "util/table.h"

namespace ants::util {
namespace {

TEST(Format, FixedDecimals) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(3.14159, 4), "3.1416");
  EXPECT_EQ(fmt_fixed(-1.5, 1), "-1.5");
}

TEST(Format, CompactIntegers) {
  EXPECT_EQ(fmt_compact(42), "42");
  EXPECT_EQ(fmt_compact(-7), "-7");
  EXPECT_EQ(fmt_compact(999999), "999999");
}

TEST(Format, CompactLargeUsesScientific) {
  EXPECT_EQ(fmt_compact(1e6), "1e+06");
  EXPECT_EQ(fmt_compact(2.5e9), "2.5e+09");
}

TEST(Format, CompactFractions) {
  EXPECT_EQ(fmt_compact(0.5), "0.500");
  EXPECT_EQ(fmt_compact(123.456), "123.456");
}

TEST(Table, AlignedOutput) {
  Table t({"k", "time"});
  t.add_row({"1", "100"});
  t.add_row({"1024", "3"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("k     time"), std::string::npos);
  EXPECT_NE(out.find("1024  3"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/ants_csv_test.csv";

  void TearDown() override { std::remove(path_.c_str()); }

  std::string slurp() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"k", "time"});
    csv.add_row({"4", "123"});
    csv.add_row_numeric({16.0, 7.5});
    EXPECT_EQ(csv.rows(), 2u);
  }
  EXPECT_EQ(slurp(), "k,time\n4,123\n16,7.500\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"name"});
    csv.add_row({"a,b"});
    csv.add_row({"say \"hi\""});
  }
  EXPECT_EQ(slurp(), "name\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, RowWidthEnforced) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.add_row({"1"}), std::invalid_argument);
}

TEST(Csv, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

}  // namespace
}  // namespace ants::util
