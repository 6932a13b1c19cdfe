// Strict CLI parsing (core/args.hpp): the value helpers behind --jobs,
// --procs, --scale and --lease-deadline, and the known-flag check of
// `table` and `run`.  The old atoi/atof path turned "--jobs=all" into
// jobs=0 silently, and a misspelled or retired flag was ignored; these
// must parse the whole string or reject it, and name the first flag a
// command does not know.

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <string_view>
#include <vector>

#include "core/args.hpp"

namespace {

using a64fxcc::core::args::parse_double;
using a64fxcc::core::args::parse_int;
using a64fxcc::core::args::unknown_flag;

TEST(ParseInt, AcceptsWholeBase10Integers) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("+8"), 8);
  EXPECT_EQ(parse_int("  16"), 16);  // strtol skips leading whitespace
  EXPECT_EQ(parse_int(std::to_string(INT_MAX)), INT_MAX);
  EXPECT_EQ(parse_int(std::to_string(INT_MIN)), INT_MIN);
}

TEST(ParseInt, RejectsEmptyGarbageAndOverflow) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("   ").has_value());
  EXPECT_FALSE(parse_int("all").has_value());
  EXPECT_FALSE(parse_int("4x").has_value());      // trailing garbage
  EXPECT_FALSE(parse_int("4 ").has_value());      // trailing space too
  EXPECT_FALSE(parse_int("1.5").has_value());     // not an integer
  EXPECT_FALSE(parse_int("0x10").has_value());    // base 10 only
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());
  EXPECT_FALSE(parse_int("-99999999999999999999").has_value());
}

TEST(ParseDouble, AcceptsWholeFiniteDoubles) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("0.5"), 0.5);
  EXPECT_EQ(parse_double("-2.25"), -2.25);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  EXPECT_EQ(parse_double("  30"), 30.0);
}

TEST(ParseDouble, RejectsEmptyGarbageInfAndNan) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("big").has_value());
  EXPECT_FALSE(parse_double("5s").has_value());   // trailing unit
  EXPECT_FALSE(parse_double("0.5.5").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());  // parses, but not finite
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());  // overflows to inf
}

constexpr std::string_view kKnown[] = {"--scale=", "--jobs=", "--csv",
                                      "--inject-faults="};

std::optional<std::string_view> first_unknown(
    const std::vector<const char*>& args) {
  return unknown_flag(args, kKnown);
}

TEST(UnknownFlag, KnownFlagsAndPositionalsPass) {
  EXPECT_FALSE(first_unknown({}).has_value());
  EXPECT_FALSE(first_unknown({"polybench", "--scale=1.0", "--jobs=1", "--csv",
                              "--inject-faults=crash:0.1"})
                   .has_value());
  // A value flag matches any value, even one its parser will reject.
  EXPECT_FALSE(first_unknown({"--jobs=abc", "--scale="}).has_value());
  // Arguments without a leading '-' are positional, never flags.
  EXPECT_FALSE(first_unknown({"all", "jobz=1"}).has_value());
}

TEST(UnknownFlag, NamesTheFirstUnknownFlag) {
  EXPECT_EQ(first_unknown({"polybench", "--scale=1.0", "--jobs=1", "--csv",
                           "--jobz=1", "--retires=3", "--dedline=1"}),
            "--jobz=1");
  // Retired flags are unknown like any misspelling.
  EXPECT_EQ(first_unknown({"--retries=2"}), "--retries=2");
  EXPECT_EQ(first_unknown({"--csv", "--deadline=1"}), "--deadline=1");
  // A value flag needs its '=', and a bare flag takes no value.
  EXPECT_EQ(first_unknown({"--scale", "0.5"}), "--scale");
  EXPECT_EQ(first_unknown({"--csv=1"}), "--csv=1");
  // Prefixes and single dashes do not match longer known names.
  EXPECT_EQ(first_unknown({"--cs"}), "--cs");
  EXPECT_EQ(first_unknown({"-csv"}), "-csv");
  EXPECT_EQ(first_unknown({"-"}), "-");
}

}  // namespace
