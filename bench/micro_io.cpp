// Microbenchmarks for the sweep I/O paths: binary columnar shard artifacts
// (write, read, full merge) and the warm sweep served from the cell cache
// journal, each over a 10,000-cell synthetic spec — the scale where a
// campaign's merge and warm-resume costs stop being noise. The aggregate
// values are synthesized (bit-patterned through the shared field table),
// not computed: these benchmarks time serialization, parsing, and lookup,
// never trials.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/agg_fields.h"
#include "scenario/artifact.h"
#include "scenario/cache_pack.h"
#include "scenario/plan.h"
#include "scenario/sweep.h"

namespace {

namespace sc = ants::scenario;

/// Scratch directory shared by every benchmark in this process; removed by
/// the OS temp policy, unique per pid so concurrent runs never collide.
const std::string& bench_dir() {
  static const std::string dir = [] {
    const std::string d =
        (std::filesystem::temp_directory_path() /
         ("ants_micro_io_" + std::to_string(::getpid())))
            .string();
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

/// The 10k-cell synthetic spec: 100 ks x 100 distances of one strategy.
/// Nothing here ever runs a trial — the spec exists to give the plan layer
/// a realistically sized cell grid with realistic hashes.
const sc::SweepPlan& io_plan() {
  static const sc::SweepPlan plan = [] {
    sc::ScenarioSpec spec;
    spec.name = "io-bench";
    spec.strategies = {"known-k"};
    for (std::int64_t k = 1; k <= 100; ++k) spec.ks.push_back(k);
    for (std::int64_t d = 1; d <= 100; ++d) spec.distances.push_back(d);
    spec.trials = 1;
    spec.seed = 7;
    return sc::make_plan(spec);
  }();
  return plan;
}

/// Deterministic synthetic aggregates, bit-patterned per (cell, field) so
/// every column carries distinct non-trivial doubles.
sc::CellResult synth_result(std::size_t cell_index) {
  sc::CellResult result;
  const ants::scenario::detail::AggField* fields =
      ants::scenario::detail::agg_fields();
  const std::size_t n = ants::scenario::detail::agg_field_count();
  for (std::size_t f = 0; f < n; ++f) {
    fields[f].set(result, 0.0625 + static_cast<double>(cell_index * n + f) *
                              1.0009765625);
  }
  return result;
}

std::vector<sc::CellResult> synth_results(
    const std::vector<std::size_t>& indices) {
  std::vector<sc::CellResult> results;
  results.reserve(indices.size());
  for (const std::size_t i : indices) results.push_back(synth_result(i));
  return results;
}

sc::ShardHeader shard_header(std::size_t shard, std::size_t n_shards) {
  const sc::SweepPlan& plan = io_plan();
  sc::ShardHeader header;
  header.format_version = sc::cell_format_version();
  header.spec_hash = plan.spec_hash;
  header.spec_text = plan.spec.canonical();
  header.shard = shard;
  header.n_shards = n_shards;
  header.n_cells_total = plan.cells.size();
  return header;
}

constexpr std::size_t kShards = 3;

/// Writes the 3-shard artifact set once; returns the paths.
const std::vector<std::string>& shard_paths() {
  static const std::vector<std::string> paths = [] {
    const sc::SweepPlan& plan = io_plan();
    std::vector<std::string> out;
    for (std::size_t s = 1; s <= kShards; ++s) {
      const std::string path =
          bench_dir() + "/shard_" + std::to_string(s) + ".shard";
      const std::vector<std::size_t> indices =
          sc::shard_cell_indices(plan, s, kShards);
      sc::write_binary_artifact(path, shard_header(s, kShards), indices,
                                synth_results(indices));
      out.push_back(path);
    }
    return out;
  }();
  return paths;
}

// --- artifact write / read -------------------------------------------------

void BM_ArtifactWriteBinary(benchmark::State& state) {
  const sc::SweepPlan& plan = io_plan();
  const std::vector<std::size_t> indices = sc::shard_cell_indices(plan, 1, 1);
  const std::vector<sc::CellResult> results = synth_results(indices);
  const sc::ShardHeader header = shard_header(1, 1);
  const std::string path = bench_dir() + "/write_bench.shard";
  for (auto _ : state) {
    sc::write_binary_artifact(path, header, indices, results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(results.size()));
}
BENCHMARK(BM_ArtifactWriteBinary)->Unit(benchmark::kMillisecond);

void BM_ArtifactReadBinary(benchmark::State& state) {
  const std::string& path = shard_paths().front();
  for (auto _ : state) {
    const sc::BinaryArtifactReader reader(path);
    std::vector<sc::CellResult> rows(reader.n_cells());
    for (std::size_t i = 0; i < rows.size(); ++i) reader.load(i, &rows[i]);
    benchmark::DoNotOptimize(reader.header().spec_hash);
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_ArtifactReadBinary)->Unit(benchmark::kMillisecond);

// --- full merge ------------------------------------------------------------

void BM_MergeBinaryShards(benchmark::State& state) {
  const sc::SweepPlan& plan = io_plan();
  const std::vector<std::string>& paths = shard_paths();
  for (auto _ : state) {
    const std::vector<sc::CellResult> merged = sc::merge_shards(plan, paths);
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(plan.cells.size()));
}
BENCHMARK(BM_MergeBinaryShards)->Unit(benchmark::kMillisecond);

// --- warm-cache sweep -------------------------------------------------------

/// Seeds a cache journal with every plan cell's synthetic aggregates, once
/// per process.
const std::string& seeded_cache_dir() {
  static const std::string dir = [] {
    const std::string d = bench_dir() + "/cache";
    const sc::SweepPlan& plan = io_plan();
    sc::PackedCacheIndex cache(d);
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      cache.append(plan.cells[i].hash, synth_result(i));
    }
    return d;
  }();
  return dir;
}

/// One warm sweep pass: every cell hits the cache, zero trials execute —
/// the iteration measures the journal load, the lookups and result
/// assembly alone.
void BM_WarmCachePackedSweep(benchmark::State& state) {
  const sc::SweepPlan& plan = io_plan();
  sc::SweepOptions opt;
  opt.threads = 1;
  opt.cache_dir = seeded_cache_dir();
  for (auto _ : state) {
    const std::vector<sc::CellResult> results =
        sc::run_shard(plan, 1, 1, opt);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(plan.cells.size()));
}
BENCHMARK(BM_WarmCachePackedSweep)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
