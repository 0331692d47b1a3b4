#include "util/args.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"

namespace ccs {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test parser");
  p.add_int("n", 10, "count");
  p.add_double("ratio", 0.5, "fraction");
  p.add_string("name", "default", "label");
  p.add_flag("verbose", "chatty");
  return p;
}

TEST(Args, DefaultsApplyWithoutFlags) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.5);
  EXPECT_EQ(p.get_string("name"), "default");
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(Args, EqualsSyntax) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=42", "--ratio=0.25", "--name=xyz", "--verbose"};
  EXPECT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.25);
  EXPECT_EQ(p.get_string("name"), "xyz");
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(Args, SpaceSyntax) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n", "7"};
  EXPECT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("n"), 7);
}

TEST(Args, UnknownFlagThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Args, MissingValueThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Args, NonNumericValueThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Args, NumbersMustParseWhole) {
  // std::stoll/std::stod stop at the first bad character; the parser must
  // reject the value instead of silently truncating it.
  for (const char* arg : {"--n=4x", "--n=1e3", "--n=4096.9", "--n=", "--ratio=0.5x",
                          "--ratio="}) {
    auto p = make_parser();
    const char* argv[] = {"prog", arg};
    try {
      p.parse(2, argv);
      ADD_FAILURE() << arg << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expects a number"), std::string::npos) << arg;
    }
  }
  // Signs and exponents are part of a whole number, not trailing junk.
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=-12", "--ratio=1e-3"};
  EXPECT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("n"), -12);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 1e-3);
}

TEST(Args, IntListsParseEveryItemWhole) {
  const auto make = [] {
    ArgParser p("prog", "test parser");
    p.add_int_list("sizes", {256, 512}, "cache sizes");
    return p;
  };
  {
    auto p = make();
    const char* argv[] = {"prog"};
    EXPECT_TRUE(p.parse(1, argv));
    EXPECT_EQ(p.get_int_list("sizes"), (std::vector<std::int64_t>{256, 512}));
  }
  {
    auto p = make();
    const char* argv[] = {"prog", "--sizes=-1,4096,7"};
    EXPECT_TRUE(p.parse(2, argv));
    EXPECT_EQ(p.get_int_list("sizes"), (std::vector<std::int64_t>{-1, 4096, 7}));
  }
  {
    auto p = make();
    const char* argv[] = {"prog", "--sizes", "64"};
    EXPECT_TRUE(p.parse(3, argv));
    EXPECT_EQ(p.get_int_list("sizes"), (std::vector<std::int64_t>{64}));
  }
  {
    ArgParser p("prog", "test parser");
    p.add_int_list("sizes", {}, "cache sizes");
    const char* argv[] = {"prog"};
    EXPECT_TRUE(p.parse(1, argv));
    EXPECT_TRUE(p.get_int_list("sizes").empty());
    EXPECT_NE(p.usage().find("--sizes=<int,...>"), std::string::npos);
  }
  // Each item goes through the same whole-number check as an int flag, and
  // an empty item is not a number either.
  for (const char* arg : {"--sizes=512x", "--sizes=256,512x", "--sizes=1e3", "--sizes=2.5",
                          "--sizes=abc", "--sizes=", "--sizes=256,,512", "--sizes=256,",
                          "--sizes=99999999999999999999"}) {
    auto p = make();
    const char* argv[] = {"prog", arg};
    try {
      p.parse(2, argv);
      ADD_FAILURE() << arg << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expects a number"), std::string::npos) << arg;
    }
  }
}

TEST(Args, FlagWithValueThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--verbose=1"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Args, PositionalArgumentThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Args, HelpReturnsFalse) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Args, UsageListsAllFlags) {
  auto p = make_parser();
  const std::string usage = p.usage();
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("--ratio"), std::string::npos);
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace ccs
