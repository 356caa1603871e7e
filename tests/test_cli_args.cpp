#include "cli/args.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim::cli {
namespace {

using namespace beesim::util::literals;

TEST(Args, ParsesFlagValuePairs) {
  const Args args({"--nodes", "8", "--cluster", "plafrim1"});
  EXPECT_EQ(args.getInt("nodes", 0), 8);
  EXPECT_EQ(args.getString("cluster", ""), "plafrim1");
  EXPECT_EQ(args.getString("missing", "fallback"), "fallback");
}

TEST(Args, ParsesEqualsSyntax) {
  const Args args({"--stripe=4", "--total=8GiB"});
  EXPECT_EQ(args.getInt("stripe", 0), 4);
  EXPECT_EQ(args.getBytes("total", 0), 8_GiB);
}

TEST(Args, BooleanFlags) {
  const Args args({"--verbose", "--nodes", "2"}, {"verbose"});
  EXPECT_TRUE(args.getBool("verbose"));
  EXPECT_FALSE(args.getBool("quiet"));
  EXPECT_EQ(args.getInt("nodes", 0), 2);
}

TEST(Args, Positionals) {
  const Args args({"first", "--flag", "v", "second"});
  EXPECT_EQ(args.positionals(), (std::vector<std::string>{"first", "second"}));
}

TEST(Args, TypedParsingErrors) {
  const Args args({"--n", "abc", "--d", "1.5x", "--b", "12zz"});
  EXPECT_THROW(args.getInt("n", 0), util::ConfigError);
  EXPECT_THROW(args.getDouble("d", 0.0), util::ConfigError);
  EXPECT_THROW(args.getBytes("b", 0), util::ConfigError);
}

TEST(Args, GetIntRejectsTrailingGarbage) {
  // std::stol would silently parse "4x" as 4; the strict parser refuses --
  // "--ppn 4x" is a typo, not a request for 4 processes.
  for (const std::string bad : {"4x", "1 2", "0x10", "3.5"}) {
    const Args args({"--ppn", bad});
    EXPECT_THROW(args.getInt("ppn", 0), util::ConfigError) << bad;
  }
  const Args ok({"--ppn", "-4"});
  EXPECT_EQ(ok.getInt("ppn", 0), -4);
}

TEST(Args, GetIntReportsOverflowAsRangeError) {
  const Args args({"--seed", "99999999999999999999"});
  try {
    args.getInt("seed", 0);
    FAIL() << "overflow accepted";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Args, GetIntRangeOverloadEnforcesBounds) {
  const Args args({"--patience", "7"});
  EXPECT_EQ(args.getInt("patience", 1, 1, 100), 7);
  EXPECT_THROW(args.getInt("patience", 1, 1, 5), util::ConfigError);
  EXPECT_THROW(args.getInt("patience", 1, 8, 100), util::ConfigError);
  // The fallback is returned untouched when the flag is absent.
  EXPECT_EQ(args.getInt("missing", 3, 1, 5), 3);
}

TEST(Args, GetUnsignedRejectsNegatives) {
  const Args args({"--reps", "-3"});
  EXPECT_THROW(args.getUnsigned("reps", 0), util::ConfigError);
}

TEST(Args, MissingValueThrows) {
  EXPECT_THROW(Args({"--nodes"}), util::ConfigError);
  EXPECT_THROW(Args({"--"}), util::ConfigError);
}

TEST(Args, FlagNamesListsSuppliedFlags) {
  const Args args({"--typo", "2", "--known=1", "--on", "pos"}, {"on"});
  EXPECT_EQ(args.flagNames(), (std::vector<std::string>{"known", "on", "typo"}));
}

TEST(Args, GetDoubleParses) {
  const Args args({"--sigma", "0.05"});
  EXPECT_DOUBLE_EQ(args.getDouble("sigma", 1.0), 0.05);
  EXPECT_DOUBLE_EQ(args.getDouble("other", 1.0), 1.0);
}

TEST(Args, GetDoubleRejectsNonFinite) {
  // std::stod parses "nan"/"inf", and NaN then slips past every `x <= 0`
  // guard downstream (NaN comparisons are false) -- reject at the parser.
  for (const std::string bad : {"nan", "NaN", "inf", "-inf", "infinity", "-nan"}) {
    const Args args({"--mttf", bad});
    EXPECT_THROW(args.getDouble("mttf", 0.0), util::ConfigError) << bad;
  }
  // Plain negatives stay parseable (callers own the sign checks).
  const Args negative({"--x", "-2.5"});
  EXPECT_DOUBLE_EQ(negative.getDouble("x", 0.0), -2.5);
}

TEST(Args, GetBoolAcceptsCanonicalSpellings) {
  const Args args({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0", "--f=no"});
  EXPECT_TRUE(args.getBool("a"));
  EXPECT_TRUE(args.getBool("b"));
  EXPECT_TRUE(args.getBool("c"));
  EXPECT_FALSE(args.getBool("d"));
  EXPECT_FALSE(args.getBool("e"));
  EXPECT_FALSE(args.getBool("f"));
  EXPECT_FALSE(args.getBool("absent"));
}

TEST(Args, GetBoolRejectsUnrecognizedValues) {
  // --mirror=tru used to silently read as false (mirroring off, no error).
  for (const std::string bad : {"tru", "TRUE", "on", "off", "2", ""}) {
    const Args args({"--mirror=" + bad});
    EXPECT_THROW(args.getBool("mirror"), util::ConfigError) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace beesim::cli
