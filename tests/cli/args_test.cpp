#include "cli/args.hpp"

#include <gtest/gtest.h>

namespace hp::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EmptyCommandLine) {
  const Args args = parse({});
  EXPECT_TRUE(args.positional().empty());
  EXPECT_NO_THROW(args.require_known({}));  // no options seen
}

TEST(Args, PositionalArgumentsInOrder) {
  const Args args = parse({"profile", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "profile");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(Args, OptionWithValue) {
  const Args args = parse({"--device", "GTX 1070"});
  EXPECT_TRUE(args.has("device"));
  EXPECT_EQ(args.get("device"), "GTX 1070");
}

TEST(Args, BooleanFlagHasNoValue) {
  const Args args = parse({"--default-mode", "--seed", "3"});
  EXPECT_TRUE(args.has("default-mode"));
  EXPECT_FALSE(args.get("default-mode").has_value());
  EXPECT_EQ(args.get("seed"), "3");
}

TEST(Args, FlagFollowedByOptionIsFlag) {
  const Args args = parse({"--verbose", "--level", "2"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.get("verbose").has_value());
}

TEST(Args, GetOrFallsBack) {
  const Args args = parse({"--method", "rand"});
  EXPECT_EQ(args.get_or("method", "hw-ieci"), "rand");
  EXPECT_EQ(args.get_or("missing", "fallback"), "fallback");
}

TEST(Args, TypedAccessors) {
  const Args args = parse({"--hours", "2.5", "--evals", "50"});
  EXPECT_DOUBLE_EQ(*args.get_double("hours"), 2.5);
  EXPECT_EQ(*args.get_int("evals"), 50);
  EXPECT_DOUBLE_EQ(args.get_double_or("missing", 7.0), 7.0);
  EXPECT_EQ(args.get_int_or("missing", 9), 9);
}

TEST(Args, MalformedNumbersThrow) {
  const Args args = parse({"--hours", "2.5x", "--evals", "1.5"});
  EXPECT_THROW((void)args.get_double("hours"), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("evals"), std::invalid_argument);
}

TEST(Args, NegativeNumbersParseAsValues) {
  // "-3" does not start with "--", so it is consumed as the value.
  const Args args = parse({"--offset", "-3"});
  EXPECT_EQ(*args.get_int("offset"), -3);
}

TEST(Args, BareDoubleDashThrows) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Args, RequireKnownAcceptsKnown) {
  const Args args = parse({"--device", "X", "--seed", "1"});
  EXPECT_NO_THROW(args.require_known({"device", "seed", "hours"}));
}

TEST(Args, RequireKnownRejectsUnknown) {
  const Args args = parse({"--devise", "X"});  // typo
  EXPECT_THROW(args.require_known({"device"}), std::invalid_argument);
}

TEST(Args, LastOccurrenceWins) {
  const Args args = parse({"--seed", "1", "--seed", "2"});
  EXPECT_EQ(args.get("seed"), "2");
}

TEST(Args, GetUintParsesAndDefaults) {
  const Args args = parse({"--batch", "4"});
  EXPECT_EQ(*args.get_uint("batch"), 4u);
  EXPECT_EQ(args.get_uint_or("batch", 1), 4u);
  EXPECT_EQ(args.get_uint_or("threads", 8), 8u);
  EXPECT_FALSE(args.get_uint("threads").has_value());
}

TEST(Args, GetUintRejectsNegativeAndMalformed) {
  EXPECT_THROW((void)parse({"--batch", "-3"}).get_uint("batch"),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--batch", "2.5"}).get_uint("batch"),
               std::invalid_argument);
}

TEST(Args, MixedPositionalAndOptions) {
  const Args args = parse({"optimize", "--seed", "4", "trailing"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "optimize");
  EXPECT_EQ(args.positional()[1], "trailing");
  EXPECT_EQ(*args.get_int("seed"), 4);
}

}  // namespace
}  // namespace hp::cli
