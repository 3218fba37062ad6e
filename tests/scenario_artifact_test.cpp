// Binary columnar shard artifacts (scenario/artifact.h): bit-exact
// round-trips through the aggregate table, the embedded metrics line,
// CRC/truncation detection, and the stale-JSONL error. The merge-level
// golden identity lives in scenario_shard_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/agg_fields.h"
#include "scenario/artifact.h"
#include "scenario/plan.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "telemetry/metrics.h"

#ifndef ANTS_SOURCE_DIR
#error "ANTS_SOURCE_DIR must point at the repository root"
#endif

namespace ants::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

ScenarioSpec golden_spec(const std::string& stem) {
  const std::string dir = std::string(ANTS_SOURCE_DIR) + "/tests/golden/";
  const std::vector<ScenarioSpec> specs = parse_spec_file(dir + stem +
                                                          ".spec");
  EXPECT_EQ(specs.size(), 1u);
  return specs.front();
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ants_artifact_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The message of the std::invalid_argument `fn` must throw.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

// --- round-trip ------------------------------------------------------------

TEST(BinaryArtifact, AggregatesRoundTripBitForBit) {
  const ScenarioSpec spec = golden_spec("step_async");
  const SweepPlan plan = make_plan(spec);
  const std::string dir = scratch_dir("roundtrip");
  const std::vector<CellResult> results = run_shard(plan, 1, 2);
  const std::string path = dir + "/shard.shard";
  write_shard(path, plan, 1, 2, results);

  const BinaryArtifactReader reader(path);
  EXPECT_EQ(reader.header().format_version, cell_format_version());
  EXPECT_EQ(reader.header().spec_hash, plan.spec_hash);
  EXPECT_EQ(reader.header().spec_text, plan.spec.canonical());
  EXPECT_EQ(reader.header().shard, 1u);
  EXPECT_EQ(reader.header().n_shards, 2u);
  EXPECT_EQ(reader.header().n_cells_total, plan.cells.size());
  ASSERT_EQ(reader.n_cells(), results.size());

  // The comparison walks the shared aggregate table, so every serialized
  // field is checked with EXPECT_EQ — the IEEE bit patterns are stored raw,
  // the round-trip must be exact, not merely close.
  const detail::AggField* fields = detail::agg_fields();
  const std::size_t n_fields = detail::agg_field_count();
  const std::vector<std::size_t> indices = shard_cell_indices(plan, 1, 2);
  for (std::size_t j = 0; j < results.size(); ++j) {
    EXPECT_EQ(reader.cell_index(j), indices[j]);
    CellResult loaded;
    reader.load(j, &loaded);
    EXPECT_TRUE(loaded.stats.times.empty()) << "per-trial times never ship";
    EXPECT_EQ(loaded.from_cache, results[j].from_cache);
    for (std::size_t f = 0; f < n_fields; ++f) {
      EXPECT_EQ(fields[f].get(loaded), fields[f].get(results[j]))
          << "field " << fields[f].name << " of cell " << j;
      EXPECT_EQ(reader.value(f, j), fields[f].get(results[j]))
          << "reader column " << fields[f].name << " of cell " << j;
    }
  }
}

TEST(BinaryArtifact, EveryAggregateOfTheTableShips) {
  // write_shard serializes straight through the aggregate table: give every
  // table entry a distinct value and each must come back, so a new
  // aggregate cannot be silently dropped from shards.
  const SweepPlan plan = make_plan(golden_spec("sync"));
  const std::string dir = scratch_dir("every_field");
  const detail::AggField* fields = detail::agg_fields();
  const std::size_t n_fields = detail::agg_field_count();
  std::vector<CellResult> results(shard_cell_indices(plan, 1, 1).size());
  for (std::size_t j = 0; j < results.size(); ++j) {
    for (std::size_t f = 0; f < n_fields; ++f) {
      fields[f].set(results[j],
                    static_cast<double>(1000 * j + f) + 0.5 * (f % 2));
    }
    results[j].from_cache = j % 2 == 1;
  }
  const std::string path = dir + "/shard.shard";
  write_shard(path, plan, 1, 1, results);

  const BinaryArtifactReader reader(path);
  ASSERT_EQ(reader.n_cells(), results.size());
  for (std::size_t j = 0; j < results.size(); ++j) {
    CellResult loaded;
    reader.load(j, &loaded);
    EXPECT_EQ(loaded.from_cache, results[j].from_cache);
    for (std::size_t f = 0; f < n_fields; ++f) {
      EXPECT_EQ(fields[f].get(loaded), fields[f].get(results[j]))
          << "aggregate " << fields[f].name << " of row " << j;
    }
  }
}

TEST(BinaryArtifact, MetricsLineRidesAlong) {
  const SweepPlan plan = make_plan(golden_spec("sync"));
  const std::string dir = scratch_dir("metrics");
  const std::vector<CellResult> results = run_shard(plan, 1, 1);

  telemetry::RunMetrics metrics;
  metrics.cells_total = results.size();
  metrics.trials_executed = 1234;
  metrics.cache_corrupt = 3;
  const std::string path = dir + "/shard.shard";
  write_shard(path, plan, 1, 1, results, &metrics);

  const std::string metrics_line = BinaryArtifactReader(path).metrics_line();
  ASSERT_FALSE(metrics_line.empty());
  const telemetry::RunMetrics back =
      telemetry::metrics_from_json(metrics_line, nullptr, nullptr, nullptr);
  EXPECT_EQ(back.cells_total, results.size());
  EXPECT_EQ(back.trials_executed, 1234u);
  EXPECT_EQ(back.cache_corrupt, 3u);

  // An artifact without telemetry reads back an empty metrics line.
  const std::string bare = dir + "/bare.shard";
  write_shard(bare, plan, 1, 1, results);
  EXPECT_EQ(BinaryArtifactReader(bare).metrics_line(), "");
}

TEST(BinaryArtifact, JsonlArtifactIsAStaleArtifactError) {
  // A shard artifact from a build that still wrote JSONL: merge and
  // catalog must say what it is and what to do, not just "bad magic".
  const SweepPlan plan = make_plan(golden_spec("sync"));
  const std::string dir = scratch_dir("stale_jsonl");
  const std::string path = dir + "/shard_1.jsonl";
  write_file(path,
             "{\"kind\":\"ants-shard-artifact\",\"format_version\":6,"
             "\"spec_hash\":\"0\",\"shard\":1,\"n_shards\":1}\n");
  const std::string what =
      error_message([&] { merge_shards(plan, {path}); });
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find("not a binary shard artifact (JSONL artifacts are no "
                      "longer read — re-run the shard)"),
            std::string::npos)
      << what;
  EXPECT_NE(error_message([&] { merge_shards({path}, nullptr); })
                .find("JSONL artifacts are no longer read"),
            std::string::npos);
}

// --- corruption and incompatibility ----------------------------------------

TEST(BinaryArtifact, DetectsCorruptionWithDistinctMessages) {
  const SweepPlan plan = make_plan(golden_spec("sync"));
  const std::string dir = scratch_dir("corrupt");
  const std::vector<CellResult> results = run_shard(plan, 1, 1);
  const std::string path = dir + "/shard.shard";
  write_shard(path, plan, 1, 1, results);
  const std::string pristine = read_file(path);
  ASSERT_GT(pristine.size(), 64u);

  // A flipped byte in the columns section: columns CRC.
  std::string flipped = pristine;
  flipped[pristine.size() - 16] ^= 0x40;
  write_file(path, flipped);
  EXPECT_NE(error_message([&] { BinaryArtifactReader r(path); })
                .find("columns section CRC mismatch"),
            std::string::npos);

  // A flipped byte in the meta section (n_cells_total, which leaves the
  // section sizes intact so only the checksum can catch it): meta CRC.
  std::string meta_flipped = pristine;
  meta_flipped[40] ^= 0x40;
  write_file(path, meta_flipped);
  EXPECT_NE(error_message([&] { BinaryArtifactReader r(path); })
                .find("meta section CRC mismatch"),
            std::string::npos);

  // A truncated file: the columns section no longer fits.
  write_file(path, pristine.substr(0, pristine.size() - 9));
  EXPECT_NE(error_message([&] { BinaryArtifactReader r(path); })
                .find("truncated"),
            std::string::npos);

  // Not a binary artifact at all.
  write_file(path, "{\"kind\":\"ants-shard-artifact\"}" + std::string(96, ' '));
  EXPECT_NE(error_message([&] { BinaryArtifactReader r(path); })
                .find("not a binary shard artifact"),
            std::string::npos);

  // Shorter than the magic: reported as truncation.
  write_file(path, "junk");
  EXPECT_NE(error_message([&] { BinaryArtifactReader r(path); })
                .find("truncated (no header)"),
            std::string::npos);
}

}  // namespace
}  // namespace ants::scenario
