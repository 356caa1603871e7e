#include "util/string_util.hpp"

#include <gtest/gtest.h>

namespace beesim::util {
namespace {

TEST(StringUtil, SplitBasics) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("trailing,", ','), (std::vector<std::string>{"trailing", ""}));
}

TEST(StringUtil, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t x\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("inner space kept"), "inner space kept");
}

TEST(StringUtil, JoinInvertsSplit) {
  const std::vector<std::string> parts{"1", "2", "3"};
  EXPECT_EQ(split("1,2,3", ','), parts);
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(toLower("MiB/S"), "mib/s");
  EXPECT_EQ(toLower("already"), "already");
}

}  // namespace
}  // namespace beesim::util
