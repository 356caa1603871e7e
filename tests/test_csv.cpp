#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace beesim::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::filesystem::path tmpFile() {
    auto path = std::filesystem::temp_directory_path() /
                ("beesim_csv_test_" + std::to_string(counter_++) + ".csv");
    cleanup_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const auto& p : cleanup_) std::filesystem::remove(p);
  }
  /// The file's exact bytes: the writer's output is what consumers read.
  static std::string bytesOf(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  int counter_ = 0;
  std::vector<std::filesystem::path> cleanup_;
};

TEST_F(CsvTest, WriteThenReadRoundTrips) {
  const auto path = tmpFile();
  {
    CsvWriter writer(path, {"a", "b", "c"});
    writer.writeRow({"1", "2", "3"});
    writer.writeRow({"x", "y", "z"});
    EXPECT_EQ(writer.rowCount(), 2u);
  }
  EXPECT_EQ(bytesOf(path), "a,b,c\n1,2,3\nx,y,z\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  const auto path = tmpFile();
  {
    CsvWriter writer(path, {"text"});
    writer.writeRow({"has,comma"});
    writer.writeRow({"has\"quote"});
  }
  EXPECT_EQ(bytesOf(path), "text\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvTest, RowWidthMismatchThrows) {
  const auto path = tmpFile();
  CsvWriter writer(path, {"a", "b"});
  EXPECT_THROW(writer.writeRow({"only-one"}), ContractError);
}

TEST_F(CsvTest, EmptyHeaderThrows) {
  EXPECT_THROW(CsvWriter(tmpFile(), {}), ContractError);
}

TEST_F(CsvTest, UnopenablePathThrows) {
  // A regular file cannot be a parent directory, so the open fails.
  const auto file = tmpFile();
  { CsvWriter writer(file, {"a"}); }
  EXPECT_THROW(CsvWriter(file / "nested.csv", {"a"}), IoError);
}

TEST(CsvEscape, OnlyQuotesWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

TEST_F(CsvTest, WriterReaderRoundTripsEveryEscapeClass) {
  // Every character class escape() handles, RFC 4180 style: a field with a
  // comma, quote, CR or LF is quoted whole, inner quotes are doubled, and
  // embedded newlines stay inside the quotes as field data.
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "with,comma", "with\"quote"},
      {"multi\nline", "cr\r\nlf", "trailing\n"},
      {"", "\"\"", ",\n\","},
  };
  const auto path = tmpFile();
  {
    CsvWriter writer(path, {"c0", "c1", "c2"});
    for (const auto& row : rows) writer.writeRow(row);
  }
  EXPECT_EQ(bytesOf(path),
            "c0,c1,c2\n"
            "plain,\"with,comma\",\"with\"\"quote\"\n"
            "\"multi\nline\",\"cr\r\nlf\",\"trailing\n\"\n"
            ",\"\"\"\"\"\",\",\n\"\",\"\n");
}

}  // namespace
}  // namespace beesim::util
