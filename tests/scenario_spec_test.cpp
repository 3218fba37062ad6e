#include "scenario/spec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/plan.h"
#include "scenario/sink.h"
#include "util/cli.h"

namespace ants::scenario {
namespace {

TEST(SpecParse, TextBlockForm) {
  const auto specs = parse_spec_text(
      "# a comment\n"
      "name       = quick\n"
      "strategies = uniform(eps=0.5), known-k\n"
      "ks         = 1, 4, 16\n"
      "distances  = 16, 32\n"
      "placement  = axis\n"
      "schedule   = staggered(gap=4)\n"
      "crash      = doa(p=0.25)\n"
      "trials     = 50\n"
      "seed       = 12345\n"
      "time_cap   = 1000\n");
  ASSERT_EQ(specs.size(), 1u);
  const ScenarioSpec& spec = specs[0];
  EXPECT_EQ(spec.name, "quick");
  EXPECT_EQ(spec.strategies,
            (std::vector<std::string>{"uniform(eps=0.5)", "known-k"}));
  EXPECT_EQ(spec.ks, (std::vector<std::int64_t>{1, 4, 16}));
  EXPECT_EQ(spec.distances, (std::vector<std::int64_t>{16, 32}));
  EXPECT_EQ(spec.placements, (std::vector<std::string>{"axis"}));
  EXPECT_EQ(spec.schedule, "staggered(gap=4)");
  EXPECT_EQ(spec.crash, "doa(p=0.25)");
  EXPECT_TRUE(spec.is_async());
  EXPECT_EQ(spec.trials, 50);
  EXPECT_EQ(spec.seed, 12345u);
  EXPECT_EQ(spec.time_cap, 1000);
}

TEST(SpecParse, PlacementListIsASweepAxis) {
  const auto specs = parse_spec_text(
      "strategies = known-k\n"
      "placements = axis, ring-fraction(f=0.25), ring\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].placements,
            (std::vector<std::string>{"axis", "ring-fraction(f=0.25)",
                                      "ring"}));
  EXPECT_FALSE(specs[0].is_async());
}

TEST(SpecParse, TargetsListIsASweepAxis) {
  const auto specs = parse_spec_text(
      "strategies = known-k\n"
      "targets    = single, pair(near=0.5), ring-set(n=3)\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].targets,
            (std::vector<std::string>{"single", "pair(near=0.5)",
                                      "ring-set(n=3)"}));
  EXPECT_TRUE(specs[0].is_multi_target());
  EXPECT_NO_THROW(specs[0].validate());

  // The default is the classic single-treasure adversary.
  ScenarioSpec plain;
  EXPECT_EQ(plain.targets, (std::vector<std::string>{"single"}));
  EXPECT_FALSE(plain.is_multi_target());
}

TEST(SpecParse, StrategyListSplitsAtTopLevelCommasOnly) {
  const auto specs = parse_spec_text(
      "strategies = levy(mu=2, loop=true, scan=32), known-k(k_belief=4)\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].strategies,
            (std::vector<std::string>{"levy(mu=2, loop=true, scan=32)",
                                      "known-k(k_belief=4)"}));
}

TEST(SpecParse, BlankLinesSeparateScenarios) {
  const auto specs = parse_spec_text(
      "name = first\nstrategies = uniform\n"
      "\n"
      "name = second\nstrategies = known-k\ntrials = 7\n");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "first");
  EXPECT_EQ(specs[1].name, "second");
  EXPECT_EQ(specs[1].trials, 7);
}

TEST(SpecParse, JsonLineForm) {
  const auto specs = parse_spec_text(
      "{\"name\": \"j\", \"strategies\": [\"uniform(eps=0.3)\", \"spiral\"], "
      "\"ks\": [1, 4], \"distances\": [8], \"trials\": 20, \"seed\": 99, "
      "\"placement\": \"diagonal\", \"time_cap\": 500}\n");
  ASSERT_EQ(specs.size(), 1u);
  const ScenarioSpec& spec = specs[0];
  EXPECT_EQ(spec.name, "j");
  EXPECT_EQ(spec.strategies,
            (std::vector<std::string>{"uniform(eps=0.3)", "spiral"}));
  EXPECT_EQ(spec.ks, (std::vector<std::int64_t>{1, 4}));
  EXPECT_EQ(spec.distances, (std::vector<std::int64_t>{8}));
  EXPECT_EQ(spec.trials, 20);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.placements, (std::vector<std::string>{"diagonal"}));
  EXPECT_EQ(spec.time_cap, 500);
}

TEST(SpecParse, MixedTextAndJsonScenarios) {
  const auto specs = parse_spec_text(
      "name = text-block\nstrategies = uniform\n"
      "\n"
      "{\"name\": \"json-block\", \"strategies\": [\"known-k\"]}\n");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "text-block");
  EXPECT_EQ(specs[1].name, "json-block");
}

TEST(SpecParse, ErrorsCarryLineNumbers) {
  try {
    parse_spec_text("name = x\nbogus_key = 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_spec_text("ks = 1, banana\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec_text("{\"name\": \"x\", }\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec_text("no equals sign here\n"),
               std::invalid_argument);
}

std::string parse_error(const std::string& text) {
  try {
    parse_spec_text(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument for:\n" << text;
  return "";
}

TEST(SpecParse, RepeatedTextKeyNamesTheKeyAndBothLines) {
  // A missing blank line merges two scenarios; the first must not vanish.
  const std::string error = parse_error(
      "name = a\nstrategies = uniform\n"
      "name = b\nstrategies = known-k\n");
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("'name'"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  // Aliases are one key.
  const std::string alias =
      parse_error("strategies = uniform\nds = 8\n# note\ndistances = 16\n");
  EXPECT_NE(alias.find("line 4"), std::string::npos) << alias;
  EXPECT_NE(alias.find("'distances' repeats 'ds' from line 2"),
            std::string::npos)
      << alias;
  EXPECT_NE(parse_error("placement = ring\nplacements = axis\n")
                .find("'placements' repeats 'placement'"),
            std::string::npos);
  // The blank line resets the keys for the next scenario.
  EXPECT_EQ(parse_spec_text("name = a\nstrategies = uniform\n\n"
                            "name = b\nstrategies = known-k\n")
                .size(),
            2u);
}

TEST(SpecParse, RepeatedJsonKeyIsAnError) {
  const std::string error = parse_error(
      "name = first\nstrategies = uniform\n\n"
      "{\"name\": \"a\", \"strategies\": [\"uniform\"], \"name\": \"b\"}\n");
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  EXPECT_NE(error.find("'name' repeats 'name'"), std::string::npos) << error;
  EXPECT_NE(parse_error("{\"ds\": [8], \"distances\": [16]}\n")
                .find("'distances' repeats 'ds'"),
            std::string::npos);
}

TEST(SpecParse, ExampleSpecFilesParseAndPlan) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(ANTS_SOURCE_DIR) + "/examples")) {
    if (entry.path().extension() != ".spec") continue;
    ++files;
    SCOPED_TRACE(entry.path().string());
    const std::vector<ScenarioSpec> specs =
        parse_spec_file(entry.path().string());
    ASSERT_FALSE(specs.empty());
    for (const ScenarioSpec& spec : specs) {
      EXPECT_FALSE(make_plan(spec).cells.empty()) << spec.name;
    }
  }
  EXPECT_GE(files, 3u);
}

TEST(SpecCanonical, RoundTripsThroughTheTextParser) {
  ScenarioSpec spec;
  spec.name = "round-trip";
  spec.strategies = {"levy(scan=32, mu=2)", "known-k"};
  spec.ks = {1, 8};
  spec.distances = {16};
  spec.placements = {"axis", "ring-fraction(f=0.5)"};
  spec.schedule = "staggered( gap=4 )";
  spec.crash = "doa(p=0.25)";
  spec.trials = 33;
  spec.seed = 777;
  spec.time_cap = 250;
  spec.columns = {"strategy", "k", "mean_time"};

  const auto reparsed = parse_spec_text(spec.canonical());
  ASSERT_EQ(reparsed.size(), 1u);
  // Canonical form normalizes strategy specs (sorted params, no spaces),
  // so compare canonical-to-canonical.
  EXPECT_EQ(reparsed[0].canonical(), spec.canonical());
  EXPECT_EQ(reparsed[0].ks, spec.ks);
  EXPECT_EQ(reparsed[0].seed, spec.seed);
  EXPECT_EQ(reparsed[0].columns, spec.columns);
}

TEST(SpecValidate, AcceptsADefaultSpecWithStrategies) {
  ScenarioSpec spec;
  spec.strategies = {"uniform"};
  EXPECT_NO_THROW(spec.validate());
}

TEST(SpecValidate, RejectsBadSpecs) {
  ScenarioSpec empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);  // no strategies

  ScenarioSpec unknown;
  unknown.strategies = {"definitely-not-registered"};
  EXPECT_THROW(unknown.validate(), std::invalid_argument);

  ScenarioSpec bad_placement;
  bad_placement.strategies = {"uniform"};
  bad_placement.placements = {"hexagon"};
  EXPECT_THROW(bad_placement.validate(), std::invalid_argument);

  ScenarioSpec bad_fraction;
  bad_fraction.strategies = {"uniform"};
  bad_fraction.placements = {"ring-fraction(f=1.5)"};
  EXPECT_THROW(bad_fraction.validate(), std::invalid_argument);

  ScenarioSpec bad_schedule;
  bad_schedule.strategies = {"uniform"};
  bad_schedule.schedule = "staggered(delay=4)";  // parameter is 'gap'
  EXPECT_THROW(bad_schedule.validate(), std::invalid_argument);

  ScenarioSpec bad_crash;
  bad_crash.strategies = {"uniform"};
  bad_crash.crash = "doa(p=1.5)";
  EXPECT_THROW(bad_crash.validate(), std::invalid_argument);

  // Schedule/crash variants apply to EVERY strategy family — segment-,
  // step-, and plane-level — through the unified executor.
  ScenarioSpec async_step;
  async_step.strategies = {"random-walk"};
  async_step.time_cap = 1000;
  async_step.schedule = "staggered(gap=4)";
  EXPECT_NO_THROW(async_step.validate());
  async_step.crash = "doa(p=0.5)";
  EXPECT_NO_THROW(async_step.validate());

  ScenarioSpec async_plane;
  async_plane.strategies = {"plane-known-k"};
  async_plane.time_cap = 100000;
  async_plane.schedule = "staggered(gap=4)";
  EXPECT_NO_THROW(async_plane.validate());
  async_plane.crash = "doa(p=0.5)";
  EXPECT_NO_THROW(async_plane.validate());

  // Target sets beyond "single" are an environment axis for every family
  // too — plane cells race continuous sight discs.
  ScenarioSpec multi_plane;
  multi_plane.strategies = {"plane-known-k"};
  multi_plane.time_cap = 100000;
  multi_plane.targets = {"single", "pair(near=0.5)"};
  EXPECT_NO_THROW(multi_plane.validate());
  multi_plane.strategies = {"known-k"};
  EXPECT_NO_THROW(multi_plane.validate());

  ScenarioSpec bad_targets;
  bad_targets.strategies = {"uniform"};
  bad_targets.targets = {"pair(near=1.5)"};
  EXPECT_THROW(bad_targets.validate(), std::invalid_argument);
  bad_targets.targets = {"ring-set(n=0)"};
  EXPECT_THROW(bad_targets.validate(), std::invalid_argument);
  bad_targets.targets = {"hexagon"};
  EXPECT_THROW(bad_targets.validate(), std::invalid_argument);

  // A fixed schedule's delay list must match every k in the grid.
  ScenarioSpec fixed_sched;
  fixed_sched.strategies = {"uniform"};
  fixed_sched.ks = {3};
  fixed_sched.schedule = "fixed(delays=0;5;10)";
  EXPECT_NO_THROW(fixed_sched.validate());
  fixed_sched.ks = {3, 4};
  EXPECT_THROW(fixed_sched.validate(), std::invalid_argument);
  fixed_sched.ks = {3};
  fixed_sched.schedule = "fixed(delays=0;-5;10)";
  EXPECT_THROW(fixed_sched.validate(), std::invalid_argument);

  // Plane-level strategies demand a finite cap (like step-level ones).
  ScenarioSpec uncapped_plane;
  uncapped_plane.strategies = {"plane-known-k"};
  EXPECT_THROW(uncapped_plane.validate(), std::invalid_argument);
  uncapped_plane.time_cap = 100000;
  EXPECT_NO_THROW(uncapped_plane.validate());

  ScenarioSpec bad_trials;
  bad_trials.strategies = {"uniform"};
  bad_trials.trials = 0;
  EXPECT_THROW(bad_trials.validate(), std::invalid_argument);

  ScenarioSpec bad_column;
  bad_column.strategies = {"uniform"};
  bad_column.columns = {"strategy", "not_a_column"};
  EXPECT_THROW(bad_column.validate(), std::invalid_argument);

  // Step-level strategies demand a finite cap.
  ScenarioSpec uncapped_walk;
  uncapped_walk.strategies = {"random-walk"};
  EXPECT_THROW(uncapped_walk.validate(), std::invalid_argument);
  uncapped_walk.time_cap = 1000;
  EXPECT_NO_THROW(uncapped_walk.validate());
}

TEST(SpecFromCli, BuildsASpecFromFlags) {
  std::vector<const char*> args = {
      "prog",
      "--strategies=uniform(eps=0.5); levy(mu=2, loop=true)",
      "--ks=1,8",
      "--ds=4,32",
      "--trials=12",
      "--seed=42",
      "--placement=axis,ring-fraction(f=0.25)",
      "--schedule=uniform-start(max=64)",
      "--crash=exp-life(mean=500)",
      "--time-cap=9000",
      "--columns=strategy,k,mean_time"};
  util::Cli cli(static_cast<int>(args.size()), args.data());
  const ScenarioSpec spec = spec_from_cli(cli);
  cli.finish();
  EXPECT_EQ(spec.strategies,
            (std::vector<std::string>{"uniform(eps=0.5)",
                                      "levy(mu=2, loop=true)"}));
  EXPECT_EQ(spec.ks, (std::vector<std::int64_t>{1, 8}));
  EXPECT_EQ(spec.distances, (std::vector<std::int64_t>{4, 32}));
  EXPECT_EQ(spec.trials, 12);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.placements,
            (std::vector<std::string>{"axis", "ring-fraction(f=0.25)"}));
  EXPECT_EQ(spec.schedule, "uniform-start(max=64)");
  EXPECT_EQ(spec.crash, "exp-life(mean=500)");
  EXPECT_EQ(spec.time_cap, 9000);
  EXPECT_EQ(spec.columns,
            (std::vector<std::string>{"strategy", "k", "mean_time"}));
}

TEST(Columns, KnownAndDefaultColumnSetsAgree) {
  for (const std::string& column : default_columns()) {
    EXPECT_TRUE(is_known_column(column)) << column;
  }
  for (const std::string& column : all_columns()) {
    EXPECT_TRUE(is_known_column(column)) << column;
  }
  EXPECT_FALSE(is_known_column("made_up"));
}

TEST(HashText, StableAndDiscriminating) {
  EXPECT_EQ(hash_text("abc"), hash_text("abc"));
  EXPECT_NE(hash_text("abc"), hash_text("abd"));
  EXPECT_NE(hash_text(""), hash_text("a"));
}

}  // namespace
}  // namespace ants::scenario
