// The sharded sweep pipeline: plan-layer partitioning, shard execution,
// artifact round-trips, merge verification, and resumability.
//
// Headline invariant (the acceptance bar of the sharded runner): for every
// pinned golden spec, merging the artifacts of ANY shard count reproduces
// the single-process run_sweep CSV byte-for-byte. Sharding changes where a
// cell runs, never what it computes — cell seeds depend only on the spec.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/agg_fields.h"
#include "scenario/artifact.h"
#include "scenario/plan.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"

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

ScenarioSpec golden_spec(const std::string& stem) {
  const std::string dir = std::string(ANTS_SOURCE_DIR) + "/tests/golden/";
  const std::vector<ScenarioSpec> specs = parse_spec_file(dir + stem +
                                                          ".spec");
  EXPECT_EQ(specs.size(), 1u);
  return specs.front();
}

std::string golden_csv(const std::string& stem) {
  return read_file(std::string(ANTS_SOURCE_DIR) + "/tests/golden/" + stem +
                   ".golden.csv");
}

/// A scratch directory under the test temp dir, wiped on entry so stale
/// artifacts from a previous run never leak into assertions.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ants_shard_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Renders results to CSV bytes through the same CsvSink path search_lab
/// uses.
std::string render_csv(const ScenarioSpec& spec,
                       const std::vector<CellResult>& results,
                       const std::string& path) {
  {
    CsvSink csv(path);
    std::vector<ResultSink*> sinks = {&csv};
    emit_results(spec, results, sinks);
  }
  return read_file(path);
}

/// Runs every shard of an N-way split, writes the artifacts, returns their
/// paths.
std::vector<std::string> run_all_shards(const SweepPlan& plan,
                                        std::size_t n_shards,
                                        const std::string& dir,
                                        const SweepOptions& opt = {}) {
  std::vector<std::string> paths;
  for (std::size_t shard = 1; shard <= n_shards; ++shard) {
    const std::vector<CellResult> results =
        run_shard(plan, shard, n_shards, opt);
    const std::string path =
        dir + "/shard_" + std::to_string(shard) + ".shard";
    write_shard(path, plan, shard, n_shards, results);
    paths.push_back(path);
  }
  return paths;
}

// --- plan layer ------------------------------------------------------------

TEST(SweepPlan, ShardPartitionIsDisjointAndComplete) {
  const SweepPlan plan = make_plan(golden_spec("step_async"));
  ASSERT_GT(plan.cells.size(), 0u);
  for (const std::size_t n_shards : {1u, 3u, 5u, 7u, 100u}) {
    std::vector<bool> owned(plan.cells.size(), false);
    for (std::size_t shard = 1; shard <= n_shards; ++shard) {
      for (const std::size_t i : shard_cell_indices(plan, shard, n_shards)) {
        EXPECT_FALSE(owned[i]) << "cell " << i << " in two shards";
        owned[i] = true;
        EXPECT_EQ(shard_of_cell(i, n_shards), shard);
      }
    }
    for (std::size_t i = 0; i < owned.size(); ++i) {
      EXPECT_TRUE(owned[i]) << "cell " << i << " unowned at N=" << n_shards;
    }
  }
}

TEST(SweepPlan, ShardAssignmentIsAPureFunctionOfTheSpec) {
  // Two independently built plans from the same parsed spec agree on every
  // cell and every shard — the property that lets N processes partition
  // without coordinating.
  const SweepPlan a = make_plan(golden_spec("plane_base"));
  const SweepPlan b = make_plan(golden_spec("plane_base"));
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.spec_hash, b.spec_hash);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].hash, b.cells[i].hash);
    EXPECT_EQ(a.cells[i].seed, b.cells[i].seed);
  }
  EXPECT_EQ(shard_cell_indices(a, 2, 3), shard_cell_indices(b, 2, 3));
}

TEST(SweepPlan, SpecHashSeparatesSpecs) {
  ScenarioSpec spec = golden_spec("step_async");
  const std::uint64_t base = hash_spec(spec);
  ScenarioSpec reparsed = parse_spec_text(spec.canonical()).front();
  EXPECT_EQ(hash_spec(reparsed), base) << "canonical form must hash stably";
  spec.seed += 1;
  EXPECT_NE(hash_spec(spec), base);
  spec.seed -= 1;
  spec.trials += 1;
  EXPECT_NE(hash_spec(spec), base);
}

TEST(SweepPlan, ShardIndicesRejectOutOfRangeShards) {
  const SweepPlan plan = make_plan(golden_spec("step_async"));
  EXPECT_THROW(shard_cell_indices(plan, 0, 3), std::invalid_argument);
  EXPECT_THROW(shard_cell_indices(plan, 4, 3), std::invalid_argument);
  EXPECT_THROW(shard_cell_indices(plan, 1, 0), std::invalid_argument);
}

// --- the headline invariant ------------------------------------------------

void check_shard_union_identity(const std::string& stem) {
  const ScenarioSpec spec = golden_spec(stem);
  const std::string golden = golden_csv(stem);
  const SweepPlan plan = make_plan(spec);

  for (const std::size_t n_shards : {1u, 3u, 5u}) {
    const std::string dir =
        scratch_dir(stem + "_n" + std::to_string(n_shards));
    const std::vector<std::string> paths =
        run_all_shards(plan, n_shards, dir);
    const std::vector<CellResult> merged = merge_shards(plan, paths);
    EXPECT_EQ(render_csv(spec, merged, dir + "/merged.csv"), golden)
        << stem << " diverged from its golden CSV at N=" << n_shards;
  }
}

TEST(ShardMerge, StepAsyncShardUnionIsByteIdenticalToGolden) {
  check_shard_union_identity("step_async");
}

TEST(ShardMerge, PlaneBaseShardUnionIsByteIdenticalToGolden) {
  check_shard_union_identity("plane_base");
}

// And the remaining pinned specs — EVERY golden must survive sharding at
// every tested shard count, not just the two headline ones.
TEST(ShardMerge, AllOtherGoldenShardUnionsAreByteIdentical) {
  for (const char* stem :
       {"sync", "async_crash", "placement_sweep", "multi_target",
        "plane_async", "stochastic_targets", "lockstep_static", "large_k",
        "segment_windows", "segment_windows_first"}) {
    check_shard_union_identity(stem);
  }
}

TEST(ShardMerge, SelfDescribingMergeRecoversTheSpec) {
  const ScenarioSpec spec = golden_spec("step_async");
  const SweepPlan plan = make_plan(spec);
  const std::string dir = scratch_dir("selfdesc");
  const std::vector<std::string> paths = run_all_shards(plan, 3, dir);

  // No plan passed in: the merge reconstructs it from the embedded
  // canonical spec and must render the same golden bytes.
  ScenarioSpec recovered;
  const std::vector<CellResult> merged = merge_shards(paths, &recovered);
  EXPECT_EQ(recovered.canonical(), spec.canonical());
  EXPECT_EQ(render_csv(recovered, merged, dir + "/merged.csv"),
            golden_csv("step_async"));
}

TEST(ShardExec, RunShardMatchesTheMatchingRunSweepCells) {
  const ScenarioSpec spec = golden_spec("step_async");
  const SweepPlan plan = make_plan(spec);
  const std::vector<CellResult> full = run_sweep(spec);

  const std::vector<std::size_t> indices = shard_cell_indices(plan, 2, 3);
  const std::vector<CellResult> shard = run_shard(plan, 2, 3);
  ASSERT_EQ(shard.size(), indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const CellResult& a = full[indices[j]];
    const CellResult& b = shard[j];
    EXPECT_EQ(a.cell.hash, b.cell.hash);
    EXPECT_EQ(a.stats.times, b.stats.times);
    EXPECT_DOUBLE_EQ(a.stats.time.mean, b.stats.time.mean);
    EXPECT_DOUBLE_EQ(a.from_last_start.mean, b.from_last_start.mean);
    EXPECT_DOUBLE_EQ(a.mean_crashed, b.mean_crashed);
  }
}

// --- merge verification ----------------------------------------------------

/// The invalid_argument message `fn` must raise.
template <typename Fn>
std::string merge_error(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

TEST(ShardMerge, RejectsArtifactsFromADifferentSpec) {
  ScenarioSpec spec = golden_spec("step_async");
  const SweepPlan plan = make_plan(spec);
  const std::string dir = scratch_dir("wrongspec");

  ScenarioSpec other = spec;
  other.seed += 1;  // same shape, different numbers — must not merge
  const SweepPlan other_plan = make_plan(other);
  const std::vector<std::string> paths = run_all_shards(other_plan, 3, dir);

  const std::string what = merge_error([&] { merge_shards(plan, paths); });
  EXPECT_NE(what.find("spec hash mismatch"), std::string::npos) << what;
}

TEST(ShardMerge, RejectsDuplicateCells) {
  const SweepPlan plan = make_plan(golden_spec("step_async"));
  const std::string dir = scratch_dir("dup");
  const std::vector<std::string> paths = run_all_shards(plan, 3, dir);

  std::vector<std::string> doubled = paths;
  doubled.push_back(paths.front());  // shard 1 listed twice
  const std::string what = merge_error([&] { merge_shards(plan, doubled); });
  EXPECT_NE(what.find("duplicate cell"), std::string::npos) << what;
  EXPECT_NE(what.find(paths.front()), std::string::npos) << what;
}

TEST(ShardMerge, RejectsMissingCells) {
  const SweepPlan plan = make_plan(golden_spec("step_async"));
  const std::string dir = scratch_dir("missing");
  const std::vector<std::string> paths = run_all_shards(plan, 3, dir);

  const std::vector<std::string> partial(paths.begin(), paths.end() - 1);
  const std::string what = merge_error([&] { merge_shards(plan, partial); });
  EXPECT_NE(what.find("cells missing"), std::string::npos) << what;
}

TEST(ShardMerge, RejectsStaleFormatVersion) {
  const SweepPlan plan = make_plan(golden_spec("step_async"));
  const std::string dir = scratch_dir("stale");

  // An artifact from an older build, crafted through the public writer so
  // its CRCs are valid — only the version stamp is stale.
  ShardHeader header;
  header.format_version = 1;  // predates every current cache/artifact key
  header.spec_hash = plan.spec_hash;
  header.spec_text = plan.spec.canonical();
  header.shard = 1;
  header.n_shards = 1;
  header.n_cells_total = plan.cells.size();
  const std::string path = dir + "/stale.shard";
  write_binary_artifact(path, header, shard_cell_indices(plan, 1, 1),
                        run_shard(plan, 1, 1));

  const std::string what = merge_error([&] { merge_shards(plan, {path}); });
  EXPECT_NE(what.find("format version 1"), std::string::npos) << what;
  EXPECT_NE(what.find("regenerate"), std::string::npos) << what;
}

TEST(ShardMerge, RejectsTruncatedAndCorruptArtifacts) {
  const SweepPlan plan = make_plan(golden_spec("step_async"));
  const std::string dir = scratch_dir("truncated");
  const std::string path = run_all_shards(plan, 1, dir).front();
  const std::string content = read_file(path);
  ASSERT_GT(content.size(), 32u);

  // Bit rot in the column data: the CRC must fail the merge with a message
  // naming the damage, not silently merge a wrong double.
  std::string rotted = content;
  rotted[content.size() - 24] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rotted;
  }
  std::string what = merge_error([&] { merge_shards(plan, {path}); });
  EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;

  // A torn file must be rejected, not half-merged.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content.substr(0, content.size() / 2);
  }
  what = merge_error([&] { merge_shards(plan, {path}); });
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

// --- resumability ----------------------------------------------------------

TEST(ShardResume, KilledShardRerunRecomputesOnlyMissingCells) {
  const ScenarioSpec spec = golden_spec("step_async");
  const SweepPlan plan = make_plan(spec);
  const std::string dir = scratch_dir("resume");
  SweepOptions opt;
  opt.cache_dir = dir + "/cache";

  // Full shard pass appends every cell to the cache journal as it
  // completes.
  const std::vector<CellResult> first = run_shard(plan, 1, 3, opt);
  ASSERT_GE(first.size(), 2u);

  // Simulate a mid-shard kill: the last cell's record never landed.
  const std::string journal = opt.cache_dir + "/cache.pack";
  const std::size_t record = 4 + 8 + 8 * detail::agg_field_count() + 4;
  std::filesystem::resize_file(journal,
                               std::filesystem::file_size(journal) - record);

  // The rerun serves every surviving cell from cache and recomputes only
  // the lost one — with identical aggregates either way.
  const std::vector<CellResult> second = run_shard(plan, 1, 3, opt);
  ASSERT_EQ(second.size(), first.size());
  std::size_t cached = 0;
  for (std::size_t j = 0; j < second.size(); ++j) {
    cached += second[j].from_cache ? 1 : 0;
    EXPECT_EQ(second[j].stats.time.mean, first[j].stats.time.mean);
    EXPECT_EQ(second[j].stats.success_rate, first[j].stats.success_rate);
  }
  EXPECT_EQ(cached, first.size() - 1);

  // And the artifact written by the resumed shard still merges to golden.
  const std::string resumed = dir + "/resumed.shard";
  write_shard(resumed, plan, 1, 3, second);
  std::vector<std::string> paths = {resumed};
  for (std::size_t shard = 2; shard <= 3; ++shard) {
    const std::string path = dir + "/shard_" + std::to_string(shard) +
                             ".shard";
    write_shard(path, plan, shard, 3, run_shard(plan, shard, 3));
    paths.push_back(path);
  }
  EXPECT_EQ(render_csv(spec, merge_shards(plan, paths), dir + "/merged.csv"),
            golden_csv("step_async"));
}

// --- shard-aware progress --------------------------------------------------

TEST(ShardProgress, LinesArePrefixedAndCountsAreShardLocal) {
  const SweepPlan plan = make_plan(golden_spec("step_async"));
  std::ostringstream progress;
  SweepOptions opt;
  opt.progress = true;
  opt.progress_stream = &progress;

  const std::vector<CellResult> with = run_shard(plan, 2, 3, opt);
  const std::vector<CellResult> without = run_shard(plan, 2, 3);

  const std::size_t shard_cells = shard_cell_indices(plan, 2, 3).size();
  std::istringstream lines(progress.str());
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    ++n_lines;
    EXPECT_EQ(line.rfind("progress: shard 2/3 [", 0), 0u)
        << "unprefixed progress line: " << line;
  }
  EXPECT_EQ(n_lines, shard_cells);
  const std::string last = "[" + std::to_string(shard_cells) + "/" +
                           std::to_string(shard_cells) + "]";
  EXPECT_NE(progress.str().find(last), std::string::npos)
      << "done/total must count the shard's cells, not the whole plan";

  // Progress is diagnostics only: results identical with and without.
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t j = 0; j < with.size(); ++j) {
    EXPECT_EQ(with[j].stats.time.mean, without[j].stats.time.mean);
  }
}

}  // namespace
}  // namespace ants::scenario
