#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace dd {
namespace {

ArgParser Parse(std::vector<const char*> argv, int begin = 1) {
  argv.insert(argv.begin(), "tool");
  return ArgParser(static_cast<int>(argv.size()), argv.data(), begin);
}

TEST(ArgParserTest, SpaceAndEqualsSyntax) {
  ArgParser args = Parse({"--name", "value", "--k=v"});
  EXPECT_TRUE(args.Has("name"));
  EXPECT_EQ(args.GetString("name"), "value");
  EXPECT_EQ(args.GetString("k"), "v");
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_EQ(args.GetString("missing", "fallback"), "fallback");
}

TEST(ArgParserTest, BooleanSwitches) {
  ArgParser args = Parse({"--verbose", "--out", "x"});
  EXPECT_TRUE(args.Has("verbose"));
  EXPECT_EQ(args.GetString("verbose"), "");
  EXPECT_EQ(args.GetString("out"), "x");
}

TEST(ArgParserTest, RepeatedFlagsCollected) {
  ArgParser args = Parse({"--metric", "a=x", "--metric", "b=y"});
  EXPECT_EQ(args.GetAll("metric"),
            (std::vector<std::string>{"a=x", "b=y"}));
  EXPECT_EQ(args.GetString("metric"), "b=y");  // Last one wins.
}

TEST(ArgParserTest, PositionalArguments) {
  ArgParser args = Parse({"pos1", "--flag", "v", "pos2"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(ArgParserTest, DoubleDashEndsFlags) {
  ArgParser args = Parse({"--a", "1", "--", "--not-a-flag"});
  EXPECT_EQ(args.GetString("a"), "1");
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"--not-a-flag"}));
}

TEST(ArgParserTest, TypedAccessors) {
  ArgParser args = Parse({"--n", "42", "--x", "2.5", "--bad", "abc"});
  auto n = args.GetInt("n", 0, 0, 100);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 42);
  auto x = args.GetDouble("x", 0.0);
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(*x, 2.5);
  EXPECT_FALSE(args.GetInt("bad", 0, 0, 100).ok());
  EXPECT_FALSE(args.GetDouble("bad", 0.0).ok());
  auto absent = args.GetInt("absent", 7, 0, 100);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(*absent, 7);
}

TEST(ArgParserTest, GetIntEnforcesInclusiveBounds) {
  auto get = [](const char* value, std::int64_t lo, std::int64_t hi) {
    return Parse({"--n", value}).GetInt("n", 0, lo, hi);
  };
  EXPECT_EQ(*get("1", 1, 255), 1);      // lo
  EXPECT_EQ(*get("255", 1, 255), 255);  // hi
  EXPECT_FALSE(get("256", 1, 255).ok());  // hi + 1
  EXPECT_FALSE(get("0", 1, 255).ok());    // lo - 1
  // Past int32: refused where the caller stores an int, not narrowed.
  EXPECT_FALSE(get("4294967306", 1, 255).ok());
  EXPECT_FALSE(get("2147483648", 1, INT32_MAX).ok());
  EXPECT_EQ(*get("2147483647", 1, INT32_MAX), INT32_MAX);
  // Negatives where only non-negative values are meaningful.
  EXPECT_FALSE(get("-1", 0, INT64_MAX).ok());
  EXPECT_EQ(*get("-5", -10, 10), -5);
  // The int64 limits parse; a value past them is refused, not clamped.
  EXPECT_EQ(*get("9223372036854775807", 0, INT64_MAX), INT64_MAX);
  EXPECT_EQ(*get("-9223372036854775808", INT64_MIN, 0), INT64_MIN);
  EXPECT_FALSE(get("9223372036854775808", INT64_MIN, INT64_MAX).ok());
  EXPECT_FALSE(get("-9223372036854775809", INT64_MIN, INT64_MAX).ok());
  EXPECT_FALSE(get("99999999999999999999", INT64_MIN, INT64_MAX).ok());
  // The fallback is returned as given when the flag is absent.
  auto absent = Parse({}).GetInt("n", 10, 1, 255);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(*absent, 10);
  // The error names the flag, the range and the value.
  const Status refused = get("-1", 0, 100).status();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("--n must be in [0, 100], got '-1'"),
            std::string::npos)
      << refused.message();
}

TEST(ArgParserTest, UnknownFlagDetection) {
  ArgParser args = Parse({"--good", "1", "--typo", "2"});
  auto unknown = args.UnknownFlags({"good", "other"});
  EXPECT_EQ(unknown, (std::vector<std::string>{"typo"}));
}

TEST(ArgParserTest, BeginOffsetSkipsSubcommand) {
  std::vector<const char*> argv = {"tool", "subcmd", "--x", "1"};
  ArgParser args(static_cast<int>(argv.size()), argv.data(), 2);
  EXPECT_EQ(args.GetString("x"), "1");
  EXPECT_TRUE(args.positional().empty());
}

TEST(SplitFlagListTest, TrimsAndDropsEmpties) {
  EXPECT_EQ(SplitFlagList("a, b ,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitFlagList(""), (std::vector<std::string>{}));
  EXPECT_EQ(SplitFlagList("a,,b"), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace dd
