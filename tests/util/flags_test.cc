#include "util/flags.h"

#include <gtest/gtest.h>

namespace goalrec::util {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, PositionalAndFlagsSeparated) {
  FlagParser parser = Parse({"stats", "--k=5", "file.txt"});
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"stats", "file.txt"}));
  EXPECT_TRUE(parser.Has("k"));
}

TEST(FlagParserTest, GetStringWithDefault) {
  FlagParser parser = Parse({"--name=value"});
  EXPECT_EQ(parser.GetString("name"), "value");
  EXPECT_EQ(parser.GetString("missing", "fallback"), "fallback");
}

TEST(FlagParserTest, BareFlagIsEmptyString) {
  FlagParser parser = Parse({"--verbose"});
  EXPECT_TRUE(parser.Has("verbose"));
  EXPECT_EQ(parser.GetString("verbose", "unset"), "");
}

TEST(FlagParserTest, GetInt) {
  FlagParser parser = Parse({"--k=42"});
  EXPECT_EQ(parser.Get<int64_t>("k", 0), 42);
  EXPECT_EQ(parser.Get<int>("k", 0), 42);
}

TEST(FlagParserTest, GetIntNegative) {
  FlagParser parser = Parse({"--delta=-3"});
  EXPECT_EQ(parser.Get<int64_t>("delta", 0), -3);
}

TEST(FlagParserTest, GetDouble) {
  FlagParser parser = Parse({"--alpha=0.25"});
  EXPECT_DOUBLE_EQ(parser.Get<double>("alpha", 0.0), 0.25);
}

TEST(FlagParserTest, GetBool) {
  FlagParser parser = Parse({"--on", "--yes=true", "--no=false", "--one=1"});
  EXPECT_TRUE(parser.Get<bool>("on", false));
  EXPECT_TRUE(parser.Get<bool>("yes", false));
  EXPECT_FALSE(parser.Get<bool>("no", true));
  EXPECT_TRUE(parser.Get<bool>("one", false));
}

TEST(FlagParserTest, AbsentFlagsReturnTheirDefaults) {
  FlagParser parser = Parse({"--other=1"});
  EXPECT_EQ(parser.Get<int64_t>("missing", 7), 7);
  EXPECT_EQ(parser.Get<int>("missing", -2), -2);
  EXPECT_DOUBLE_EQ(parser.Get<double>("missing", 1.5), 1.5);
  EXPECT_TRUE(parser.Get<bool>("missing", true));
  EXPECT_FALSE(parser.Get<bool>("missing", false));
}

// A present but malformed value must stop the tool with status 2 and a
// message naming the flag, never fall back to the default.
TEST(FlagParserDeathTest, MalformedIntExitsNamingTheFlag) {
  FlagParser parser = Parse({"--deadline_ms=abc", "--k=12x", "--e="});
  EXPECT_EXIT(parser.Get<int64_t>("deadline_ms", 8),
              ::testing::ExitedWithCode(2),
              "tool: --deadline_ms expects an integer, got 'abc'");
  EXPECT_EXIT(parser.Get<int>("k", 10), ::testing::ExitedWithCode(2),
              "--k expects an integer, got '12x'");
  EXPECT_EXIT(parser.Get<int64_t>("e", 1), ::testing::ExitedWithCode(2),
              "--e expects an integer");
}

TEST(FlagParserDeathTest, IntOutsideTheTypeRangeExits) {
  FlagParser parser = Parse({"--n=-1", "--big=4294967296"});
  EXPECT_EXIT(parser.Get<uint32_t>("n", 0), ::testing::ExitedWithCode(2),
              "--n expects an integer in \\[0, 4294967295\\], got '-1'");
  EXPECT_EXIT(parser.Get<int>("big", 0), ::testing::ExitedWithCode(2),
              "--big expects an integer in");
  EXPECT_EQ(parser.Get<int64_t>("big", 0), 4294967296);
}

TEST(FlagParserDeathTest, MalformedDoubleExitsNamingTheFlag) {
  FlagParser parser = Parse({"--rate=x", "--ratio=0.5.5"});
  EXPECT_EXIT(parser.Get<double>("rate", 0.0), ::testing::ExitedWithCode(2),
              "--rate expects a number, got 'x'");
  EXPECT_EXIT(parser.Get<double>("ratio", 0.0), ::testing::ExitedWithCode(2),
              "--ratio expects a number, got '0.5.5'");
}

TEST(FlagParserDeathTest, MalformedBoolExitsNamingTheFlag) {
  FlagParser parser = Parse({"--smoke=maybe", "--quiet=yes"});
  EXPECT_EXIT(parser.Get<bool>("smoke", false), ::testing::ExitedWithCode(2),
              "--smoke expects a boolean, got 'maybe'");
  EXPECT_EXIT(parser.Get<bool>("quiet", true), ::testing::ExitedWithCode(2),
              "--quiet expects a boolean, got 'yes'");
}

TEST(FlagParserTest, RangedGetAcceptsValuesInTheRange) {
  FlagParser parser = Parse({"--k=1", "--rate=1", "--share=0.5"});
  EXPECT_EQ(parser.Get<int64_t>("k", 10, {.min = 1}), 1);
  EXPECT_DOUBLE_EQ(parser.Get<double>("rate", 0.0, {.min = 0.0, .max = 1.0}),
                   1.0);
  EXPECT_DOUBLE_EQ(
      parser.Get<double>("share", 0.1,
                         {.min = 0.0, .max = 1.0, .min_open = true,
                          .max_open = true}),
      0.5);
  // An absent flag returns its default unchecked.
  EXPECT_EQ(parser.Get<int64_t>("missing", 0, {.min = 1}), 0);
}

// A value outside the range exits 2 and the message names the interval.
TEST(FlagParserDeathTest, ValueOutsideTheRangeExitsNamingTheRange) {
  FlagParser parser =
      Parse({"--k=0", "--rate=1.5", "--share=1", "--wait=-2"});
  EXPECT_EXIT(parser.Get<int64_t>("k", 10, {.min = 1}),
              ::testing::ExitedWithCode(2),
              "tool: --k expects an integer >= 1, got '0'");
  EXPECT_EXIT(parser.Get<double>("rate", 0.0, {.min = 0.0, .max = 1.0}),
              ::testing::ExitedWithCode(2),
              "--rate expects a number in \\[0, 1\\], got '1.5'");
  EXPECT_EXIT(parser.Get<double>("share", 0.5,
                                 {.min = 0.0, .max = 1.0, .max_open = true}),
              ::testing::ExitedWithCode(2),
              "--share expects a number in \\[0, 1\\), got '1'");
  EXPECT_EXIT(parser.Get<int>("wait", 0, {.max = -3, .max_open = true}),
              ::testing::ExitedWithCode(2),
              "--wait expects an integer < -3, got '-2'");
}

TEST(FlagParserTest, DoubleDashEndsFlagParsing) {
  FlagParser parser = Parse({"--k=1", "--", "--not-a-flag"});
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"--not-a-flag"}));
  EXPECT_FALSE(parser.Has("not-a-flag"));
}

TEST(FlagParserTest, UnknownFlags) {
  FlagParser parser = Parse({"--known=1", "--mystery=2"});
  EXPECT_EQ(parser.UnknownFlags({"known"}),
            (std::vector<std::string>{"mystery"}));
  EXPECT_TRUE(parser.UnknownFlags({"known", "mystery"}).empty());
}

TEST(FlagParserTest, LastValueWinsOnRepeat) {
  FlagParser parser = Parse({"--k=1", "--k=2"});
  EXPECT_EQ(parser.Get<int64_t>("k", 0), 2);
}

TEST(FlagParserTest, ValueMayContainEquals) {
  FlagParser parser = Parse({"--expr=a=b"});
  EXPECT_EQ(parser.GetString("expr"), "a=b");
}

}  // namespace
}  // namespace goalrec::util
