// Strict CLI value parsing (core/args.hpp): the helpers behind --jobs,
// --procs, --retries, --deadline, --scale and --lease-deadline.  The
// old atoi/atof path turned
// "--jobs=all" into jobs=0 silently; these must parse the whole string
// or reject it.

#include <gtest/gtest.h>

#include <climits>
#include <string>

#include "core/args.hpp"

namespace {

using a64fxcc::core::args::parse_double;
using a64fxcc::core::args::parse_int;

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

}  // namespace
