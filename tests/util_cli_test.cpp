#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ants::util {
namespace {

Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data());
}

TEST(Cli, EqualsForm) {
  Cli cli = make_cli({"--trials=500", "--eps=0.25", "--name=axis"});
  EXPECT_EQ(cli.get_int("trials", 0), 500);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0), 0.25);
  EXPECT_EQ(cli.get_string("name", ""), "axis");
  cli.finish();
}

TEST(Cli, SpaceForm) {
  Cli cli = make_cli({"--trials", "300", "--name", "ring"});
  EXPECT_EQ(cli.get_int("trials", 0), 300);
  EXPECT_EQ(cli.get_string("name", ""), "ring");
  cli.finish();
}

TEST(Cli, BareBooleans) {
  Cli cli = make_cli({"--quick", "--csv=out.csv"});
  EXPECT_TRUE(cli.get_bool("quick", false));
  EXPECT_FALSE(cli.get_bool("full", false));
  EXPECT_EQ(cli.get_string("csv", ""), "out.csv");
  cli.finish();
}

TEST(Cli, BooleanExplicitFalse) {
  Cli cli = make_cli({"--verbose=false", "--color=0"});
  EXPECT_FALSE(cli.get_bool("verbose", true));
  EXPECT_FALSE(cli.get_bool("color", true));
  cli.finish();
}

TEST(Cli, Defaults) {
  Cli cli = make_cli({});
  EXPECT_EQ(cli.get_int("trials", 123), 123);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.5), 0.5);
  EXPECT_EQ(cli.get_string("mode", "axis"), "axis");
  cli.finish();
}

TEST(Cli, IntList) {
  Cli cli = make_cli({"--ks=1,4,16,64"});
  const auto ks = cli.get_int_list("ks", {});
  ASSERT_EQ(ks.size(), 4u);
  EXPECT_EQ(ks[0], 1);
  EXPECT_EQ(ks[3], 64);
  cli.finish();
}

TEST(Cli, DoubleList) {
  Cli cli = make_cli({"--eps=0.1,0.3,1.0"});
  const auto eps = cli.get_double_list("eps", {});
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_DOUBLE_EQ(eps[1], 0.3);
  cli.finish();
}

TEST(Cli, ListDefaultsPassThrough) {
  Cli cli = make_cli({});
  const auto ks = cli.get_int_list("ks", {2, 8});
  ASSERT_EQ(ks.size(), 2u);
  EXPECT_EQ(ks[1], 8);
  cli.finish();
}

TEST(Cli, PositionalArguments) {
  Cli cli = make_cli({"alpha", "--x=1", "beta"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "alpha");
  EXPECT_EQ(cli.positional()[1], "beta");
  cli.get_int("x", 0);
  cli.finish();
}

TEST(Cli, UnknownFlagRejected) {
  Cli cli = make_cli({"--trials=10", "--tyop=5"});
  cli.get_int("trials", 0);
  EXPECT_THROW(cli.finish(), std::invalid_argument);
}

TEST(Cli, NegativeNumberIsValueNotFlag) {
  Cli cli = make_cli({"--offset", "-5"});
  EXPECT_EQ(cli.get_int("offset", 0), -5);
  cli.finish();
}

TEST(Cli, HasDetectsPresence) {
  Cli cli = make_cli({"--quick"});
  EXPECT_TRUE(cli.has("quick"));
  EXPECT_FALSE(cli.has("full"));
  cli.get_bool("quick", false);
  cli.finish();
}

TEST(Cli, BareFlagIsAnErrorForEveryValueGetter) {
  // A bare flag reads as true for get_bool only; a path or number flag
  // given without a value must not run with the string "true".
  Cli cli = make_cli({"--csv", "--trials", "--eps", "--ks", "--deltas"});
  const auto expect_needs_value = [](auto&& get, const std::string& flag) {
    try {
      get();
      ADD_FAILURE() << flag << " accepted without a value";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), flag + " needs a value");
    }
  };
  expect_needs_value([&] { return cli.get_string("csv", ""); }, "--csv");
  expect_needs_value([&] { return cli.get_int("trials", 0); }, "--trials");
  expect_needs_value([&] { return cli.get_double("eps", 0); }, "--eps");
  expect_needs_value([&] { return cli.get_int_list("ks", {}); }, "--ks");
  expect_needs_value([&] { return cli.get_double_list("deltas", {}); },
                     "--deltas");
  cli.finish();
}

TEST(Cli, ValueGivenAfterABareFlagCounts) {
  Cli cli = make_cli({"--csv", "--csv=out.csv", "--quiet"});
  EXPECT_EQ(cli.get_string("csv", ""), "out.csv");
  EXPECT_TRUE(cli.get_bool("quiet", false));
  cli.finish();
}

TEST(Cli, NumericFlagsParseTheWholeValue) {
  Cli cli = make_cli({"--trials=1e3", "--k=12abc", "--cap=", "--big=99999999999999999999",
                      "--eps=0.5x", "--huge=1e999", "--ks=4,x", "--ds=8,16.5",
                      "--deltas=0.2,,0.8", "--bad=0.2;0.8"});
  const auto expect_error = [](auto&& get, const std::string& message) {
    try {
      get();
      ADD_FAILURE() << "no error, expected: " << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  };
  expect_error([&] { return cli.get_int("trials", 0); },
               "--trials: '1e3' is not an integer");
  expect_error([&] { return cli.get_int("k", 0); },
               "--k: '12abc' is not an integer");
  expect_error([&] { return cli.get_int("cap", 0); },
               "--cap: '' is not an integer");
  expect_error([&] { return cli.get_int("big", 0); },
               "--big: '99999999999999999999' is not an integer");
  expect_error([&] { return cli.get_double("eps", 0); },
               "--eps: '0.5x' is not a number");
  expect_error([&] { return cli.get_double("huge", 0); },
               "--huge: '1e999' is not a number");
  expect_error([&] { return cli.get_int_list("ks", {}); },
               "--ks: 'x' is not an integer");
  expect_error([&] { return cli.get_int_list("ds", {}); },
               "--ds: '16.5' is not an integer");
  // Blank list entries are skipped, as before; a wrong separator is not.
  EXPECT_EQ(cli.get_double_list("deltas", {}),
            (std::vector<double>{0.2, 0.8}));
  expect_error([&] { return cli.get_double_list("bad", {}); },
               "--bad: '0.2;0.8' is not a number");
  cli.finish();
}

TEST(Cli, NumericFlagsAcceptWellFormedValues) {
  // Whitespace around a value or list entry is not part of it.
  Cli cli = make_cli({"--trials=-12", "--eps=1e-3", "--delta=.5 ",
                      "--ks=1, -2,3", "--ds=2.5e1,4"});
  EXPECT_EQ(cli.get_int("trials", 0), -12);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0), 1e-3);
  EXPECT_DOUBLE_EQ(cli.get_double("delta", 0), 0.5);
  EXPECT_EQ(cli.get_int_list("ks", {}), (std::vector<std::int64_t>{1, -2, 3}));
  EXPECT_EQ(cli.get_double_list("ds", {}), (std::vector<double>{25.0, 4.0}));
  cli.finish();
}

}  // namespace
}  // namespace ants::util
