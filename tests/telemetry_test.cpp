// The run telemetry subsystem: counters/timers/sketches, the metrics JSON
// round-trip, the JSONL event-log schema, Chrome trace validity, exact
// shard-metrics aggregation through artifacts — and the contract everything
// else rests on: telemetry is strictly observational, so result rows are
// byte-identical with it on or off (checked against every pinned golden
// CSV).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/artifact.h"
#include "scenario/json.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/run_telemetry.h"
#include "telemetry/trace.h"

#ifndef ANTS_SOURCE_DIR
#error "ANTS_SOURCE_DIR must point at the repository root"
#endif

namespace ants::telemetry {
namespace {

namespace det = scenario::detail;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

scenario::ScenarioSpec golden_spec(const std::string& stem) {
  const std::string dir = std::string(ANTS_SOURCE_DIR) + "/tests/golden/";
  const std::vector<scenario::ScenarioSpec> specs =
      scenario::parse_spec_file(dir + stem + ".spec");
  EXPECT_EQ(specs.size(), 1u);
  return specs.front();
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ants_telemetry_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Results rendered to CSV bytes through the same CsvSink path search_lab
/// uses — the unit the byte-identity assertions compare.
std::string results_csv(const scenario::ScenarioSpec& spec,
                        const std::vector<scenario::CellResult>& results,
                        const std::string& path) {
  {
    scenario::CsvSink csv(path);
    std::vector<scenario::ResultSink*> sinks = {&csv};
    emit_results(spec, results, sinks);
  }
  return read_file(path);
}

// --- counters, timers, sketches --------------------------------------------

TEST(Telemetry, CounterAndTimerAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Timer t;
  t.add_us(100);
  {
    const Timer::Scope scope(&t);
  }
  // The scope adds real (non-negative) elapsed time on top of the manual
  // 100.
  EXPECT_GE(t.value_us(), 100);

  {
    const Timer::Scope noop(nullptr);  // null timer must be a safe no-op
  }
}

TEST(Telemetry, DurationSketchQuantilesMergeAndSerialization) {
  DurationSketch a;
  for (int i = 0; i < 100; ++i) a.add_us(1000.0);  // 1 ms point mass
  EXPECT_EQ(a.total(), 100u);
  // log2 binning has ~5% relative resolution; the quantile lands within the
  // 1 ms bin.
  EXPECT_NEAR(a.quantile_us(0.5), 1000.0, 1000.0 * 0.06);

  DurationSketch b;
  for (int i = 0; i < 100; ++i) b.add_us(16000.0);  // 16 ms point mass

  // Exact bin-wise merge: the merged sketch equals the sketch one process
  // would have built from the union of samples.
  DurationSketch merged;
  merged.merge(a);
  merged.merge(b);
  DurationSketch direct;
  for (int i = 0; i < 100; ++i) direct.add_us(1000.0);
  for (int i = 0; i < 100; ++i) direct.add_us(16000.0);
  EXPECT_EQ(merged.total(), 200u);
  EXPECT_EQ(merged.sparse_bins(), direct.sparse_bins());
  for (const double p : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile_us(p), direct.quantile_us(p)) << p;
  }

  // Sparse (bin, count) serialization rebuilds the identical sketch.
  DurationSketch rebuilt;
  rebuilt.add_sparse_bins(merged.sparse_bins());
  EXPECT_EQ(rebuilt.sparse_bins(), merged.sparse_bins());
  EXPECT_DOUBLE_EQ(rebuilt.quantile_us(0.5), merged.quantile_us(0.5));

  // Sub-microsecond samples saturate into the first bin instead of going
  // negative in log2 space.
  DurationSketch tiny;
  tiny.add_us(0.0);
  EXPECT_EQ(tiny.total(), 1u);

  EXPECT_TRUE(std::isnan(DurationSketch().quantile_us(0.5)));
}

// --- metrics JSON ----------------------------------------------------------

TEST(Telemetry, MetricsJsonRoundTrips) {
  RunMetrics m;
  m.cells_total = 12;
  m.cells_computed = 9;
  m.cells_cached = 3;
  m.trials_executed = 1800;
  m.cache_hits = 3;
  m.cache_misses = 9;
  m.batch_scalar_fallback = 4;
  m.plan_us = 1234;
  m.execute_us = 567890;
  m.merge_us = 7;
  for (int i = 0; i < 9; ++i) m.cell_duration.add_us(2000.0 * (i + 1));

  const std::string line = metrics_to_json(m, "demo", 2, 3);
  std::string scenario;
  std::size_t shard = 0, n_shards = 0;
  const RunMetrics back =
      metrics_from_json(line, &scenario, &shard, &n_shards);

  EXPECT_EQ(scenario, "demo");
  EXPECT_EQ(shard, 2u);
  EXPECT_EQ(n_shards, 3u);
  EXPECT_EQ(back.cells_total, m.cells_total);
  EXPECT_EQ(back.cells_computed, m.cells_computed);
  EXPECT_EQ(back.cells_cached, m.cells_cached);
  EXPECT_EQ(back.trials_executed, m.trials_executed);
  EXPECT_EQ(back.cache_hits, m.cache_hits);
  EXPECT_EQ(back.cache_misses, m.cache_misses);
  EXPECT_EQ(back.batch_scalar_fallback, m.batch_scalar_fallback);
  EXPECT_EQ(back.plan_us, m.plan_us);
  EXPECT_EQ(back.execute_us, m.execute_us);
  EXPECT_EQ(back.merge_us, m.merge_us);
  EXPECT_EQ(back.cell_duration.sparse_bins(), m.cell_duration.sparse_bins());

  EXPECT_THROW(metrics_from_json("{\"kind\":\"nope\"}", nullptr, nullptr,
                                 nullptr),
               std::invalid_argument);
  EXPECT_THROW(metrics_from_json("not json", nullptr, nullptr, nullptr),
               std::invalid_argument);
}

TEST(Telemetry, SketchSaturationSurvivesJsonAndShardMerge) {
  // Clipped samples: sub-microsecond durations underflow the log2 domain,
  // absurdly long ones overflow it. Both land in the edge bins, so the
  // sparse serialization alone rebuilds a sketch whose quantiles misread
  // them as in-range — the saturation counters must round-trip too.
  RunMetrics m;
  m.cell_duration.add_us(0.25);   // underflow (log2 < 0)
  m.cell_duration.add_us(0.5);    // underflow
  m.cell_duration.add_us(2000.0); // in-range
  m.cell_duration.add_us(3e12);   // overflow (> 2^40 us)
  ASSERT_EQ(m.cell_duration.saturation(),
            (std::pair<std::uint64_t, std::uint64_t>{2, 1}));

  const std::string line = metrics_to_json(m, "demo", 0, 2);
  const RunMetrics back = metrics_from_json(line, nullptr, nullptr, nullptr);
  EXPECT_EQ(back.cell_duration.saturation(), m.cell_duration.saturation());
  EXPECT_EQ(back.cell_duration.sparse_bins(), m.cell_duration.sparse_bins());
  // The "(saturated: ...)" report line survives the round-trip.
  EXPECT_NE(back.cell_duration.log2_histogram().render().find("(saturated:"),
            std::string::npos);

  // Shard re-aggregation: merging two round-tripped shards sums the
  // counters exactly as one process would have counted them.
  RunMetrics shard2;
  shard2.cell_duration.add_us(0.1);  // underflow
  shard2.cell_duration.add_us(5e12); // overflow
  RunMetrics merged = metrics_from_json(metrics_to_json(m, "demo", 0, 2),
                                        nullptr, nullptr, nullptr);
  merged.merge(metrics_from_json(metrics_to_json(shard2, "demo", 1, 2),
                                 nullptr, nullptr, nullptr));
  EXPECT_EQ(merged.cell_duration.saturation(),
            (std::pair<std::uint64_t, std::uint64_t>{3, 2}));

  // Pre-fix records (no saturation keys) read back with zero counters
  // instead of failing.
  std::string legacy = metrics_to_json(m, "demo", 0, 2);
  const auto strip = [&](const std::string& key) {
    const std::size_t at = legacy.find(",\"" + key + "\":");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = legacy.find_first_of(",}", at + 1 + key.size() + 4);
    legacy.erase(at, end - at);
  };
  strip("cell_hist_under");
  strip("cell_hist_over");
  const RunMetrics old = metrics_from_json(legacy, nullptr, nullptr, nullptr);
  EXPECT_EQ(old.cell_duration.saturation(),
            (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(old.cell_duration.sparse_bins(), m.cell_duration.sparse_bins());
}

TEST(Telemetry, RunMetricsMergeSumsEverything) {
  RunMetrics a, b;
  a.cells_total = 3;
  a.cells_computed = 2;
  a.cells_cached = 1;
  a.trials_executed = 200;
  a.cache_hits = 1;
  a.batch_scalar_fallback = 2;
  a.plan_us = 10;
  a.execute_us = 100;
  a.cell_duration.add_us(1000.0);
  b.cells_total = 5;
  b.cells_computed = 5;
  b.trials_executed = 500;
  b.cache_misses = 5;
  b.batch_scalar_fallback = 3;
  b.plan_us = 20;
  b.execute_us = 300;
  b.merge_us = 7;
  b.cell_duration.add_us(4000.0);

  a.merge(b);
  EXPECT_EQ(a.cells_total, 8u);
  EXPECT_EQ(a.cells_computed, 7u);
  EXPECT_EQ(a.cells_cached, 1u);
  EXPECT_EQ(a.trials_executed, 700u);
  EXPECT_EQ(a.cache_hits, 1u);
  EXPECT_EQ(a.cache_misses, 5u);
  EXPECT_EQ(a.batch_scalar_fallback, 5u);
  EXPECT_EQ(a.plan_us, 30);
  EXPECT_EQ(a.execute_us, 400);
  EXPECT_EQ(a.merge_us, 7);
  EXPECT_EQ(a.cell_duration.total(), 2u);
}

// --- event log schema ------------------------------------------------------

/// Parses one JSONL event line into name -> value, asserting it is valid
/// flat JSON with "event" and "ts_ms".
std::map<std::string, det::JsonValue> parse_event(const std::string& line) {
  det::JsonLineParser parser(line);
  std::map<std::string, det::JsonValue> out;
  for (auto& [key, value] : parser.parse_object()) {
    out[key] = std::move(value);
  }
  EXPECT_TRUE(out.count("event")) << line;
  EXPECT_TRUE(out.count("ts_ms")) << line;
  EXPECT_EQ(out["ts_ms"].kind, det::JsonValue::Kind::kNumber) << line;
  return out;
}

void expect_fields(const std::map<std::string, det::JsonValue>& event,
                   const std::vector<std::string>& names,
                   const std::string& line) {
  for (const std::string& name : names) {
    EXPECT_TRUE(event.count(name)) << "missing '" << name << "' in " << line;
  }
}

TEST(Telemetry, EventLogSchemaRoundTripsThroughJsonParser) {
  const scenario::ScenarioSpec spec = golden_spec("sync");

  std::ostringstream events;
  TelemetryConfig config;
  config.heartbeat_interval_ms = 0;  // heartbeat on every completion
  RunTelemetry tel(config, events);

  scenario::SweepOptions opt;
  // One thread: the heartbeat CAS is race-free, so the interval-0 count is
  // exactly one heartbeat per cell completion.
  opt.threads = 1;
  opt.telemetry = &tel;
  const std::vector<scenario::CellResult> results =
      scenario::run_sweep(spec, opt);
  tel.finish();

  std::istringstream lines(events.str());
  std::string line;
  std::map<std::string, std::size_t> kind_counts;
  while (std::getline(lines, line)) {
    auto event = parse_event(line);
    const std::string kind = event["event"].string;
    kind_counts[kind] += 1;
    if (kind == "run_start") {
      expect_fields(event,
                    {"scenario", "cells", "trials_per_cell", "shard",
                     "n_shards"},
                    line);
      EXPECT_EQ(event["scenario"].string, spec.name);
    } else if (kind == "cell_start") {
      expect_fields(event, {"cell", "name", "k", "D"}, line);
    } else if (kind == "cell_end") {
      expect_fields(event,
                    {"cell", "name", "k", "D", "status", "duration_ms",
                     "trials"},
                    line);
      EXPECT_EQ(event["status"].string, "computed");
    } else if (kind == "heartbeat") {
      expect_fields(event, {"done", "total", "trials_executed"}, line);
    } else if (kind == "run_end") {
      expect_fields(event,
                    {"cells_computed", "cells_cached", "trials_executed",
                     "duration_ms"},
                    line);
    } else {
      ADD_FAILURE() << "unknown event kind: " << line;
    }
  }

  EXPECT_EQ(kind_counts["run_start"], 1u);
  EXPECT_EQ(kind_counts["run_end"], 1u);
  EXPECT_EQ(kind_counts["cell_start"], results.size());
  EXPECT_EQ(kind_counts["cell_end"], results.size());
  EXPECT_EQ(kind_counts["heartbeat"], results.size());  // interval 0
}

// --- Chrome trace ----------------------------------------------------------

TEST(Telemetry, TraceRendersValidChromeTraceJson) {
  // Segment cells and lock-step walker cells (random-walk, plus a biased
  // walk): the executor records one trace entry per block of either kind.
  scenario::ScenarioSpec spec = golden_spec("sync");
  spec.strategies.push_back("biased-walk");

  std::ostringstream events;
  RunTelemetry tel(TelemetryConfig{}, events);  // trace always on here
  scenario::SweepOptions opt;
  opt.threads = 2;
  opt.telemetry = &tel;
  scenario::run_sweep(spec, opt);

  ASSERT_NE(tel.trace(), nullptr);
  const std::string trace = tel.trace()->render();

  // The whole trace is one JSON object with a traceEvents array of (nested)
  // objects — parseable by the shared JSON parser's object support.
  det::JsonLineParser parser(trace);
  const auto fields = parser.parse_object();
  const det::JsonValue* trace_events = nullptr;
  for (const auto& [key, value] : fields) {
    if (key == "traceEvents") trace_events = &value;
  }
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->kind, det::JsonValue::Kind::kArray);

  std::size_t meta = 0, spans = 0;
  std::uint64_t span_trials = 0;
  for (const det::JsonValue& event : trace_events->array) {
    ASSERT_EQ(event.kind, det::JsonValue::Kind::kObject);
    std::map<std::string, const det::JsonValue*> by_name;
    for (const auto& [key, value] : event.object) by_name[key] = &value;
    ASSERT_TRUE(by_name.count("name"));
    ASSERT_TRUE(by_name.count("ph"));
    ASSERT_TRUE(by_name.count("pid"));
    ASSERT_TRUE(by_name.count("tid"));
    const std::string ph = by_name["ph"]->string;
    if (ph == "M") {
      ++meta;
      continue;
    }
    ASSERT_EQ(ph, "X");  // complete events only
    ++spans;
    ASSERT_TRUE(by_name.count("ts"));
    ASSERT_TRUE(by_name.count("dur"));
    EXPECT_GE(det::parse_double("dur", by_name["dur"]->string), 1.0);
    if (by_name.count("args")) {
      ASSERT_EQ(by_name["args"]->kind, det::JsonValue::Kind::kObject);
      for (const auto& [key, value] : by_name["args"]->object) {
        if (key == "trials") {
          span_trials += static_cast<std::uint64_t>(
              det::parse_double("trials", value.string));
        }
      }
    }
  }
  EXPECT_GE(meta, 2u);   // process_name + at least one thread_name
  EXPECT_GE(spans, 1u);  // at least the execute phase span
  // Coalesced worker spans account for every executed trial exactly once.
  EXPECT_EQ(span_trials, tel.snapshot().trials_executed);
}

// --- the strict-observation contract ---------------------------------------

// Telemetry on (events + trace + metrics all active) must not perturb a
// single byte of any pinned golden CSV. This is the determinism
// non-negotiable: no timing data may leak into seeds, cache keys, or sink
// columns.
TEST(Telemetry, GoldenCsvsByteIdenticalWithTelemetryOn) {
  const std::string dir = std::string(ANTS_SOURCE_DIR) + "/tests/golden/";
  const std::string tmp = scratch_dir("golden");
  for (const std::string stem :
       {"sync", "async_crash", "placement_sweep", "step_async",
        "multi_target", "plane_base", "plane_async", "stochastic_targets",
        "lockstep_static", "large_k", "segment_windows",
        "segment_windows_first"}) {
    const scenario::ScenarioSpec spec = golden_spec(stem);

    std::ostringstream events;
    RunTelemetry tel(TelemetryConfig{}, events);
    scenario::SweepOptions opt;
    opt.threads = 3;
    opt.telemetry = &tel;
    const std::vector<scenario::CellResult> results =
        scenario::run_sweep(spec, opt);
    tel.finish();

    EXPECT_EQ(results_csv(spec, results, tmp + "/" + stem + ".csv"),
              read_file(dir + stem + ".golden.csv"))
        << "telemetry perturbed golden " << stem;
    EXPECT_GT(tel.snapshot().trials_executed, 0u);
  }
}

// --- end-to-end counting and shard aggregation -----------------------------

TEST(Telemetry, CacheHitsCountOnWarmRerun) {
  const scenario::ScenarioSpec spec = golden_spec("sync");
  const std::string cache = scratch_dir("cache");
  const std::size_t n_cells = scenario::flatten(spec).size();

  RunTelemetry cold;
  scenario::SweepOptions opt;
  opt.threads = 2;
  opt.cache_dir = cache;
  opt.telemetry = &cold;
  scenario::run_sweep(spec, opt);
  const RunMetrics cold_m = cold.snapshot();
  EXPECT_EQ(cold_m.cells_total, n_cells);
  EXPECT_EQ(cold_m.cells_computed, n_cells);
  EXPECT_EQ(cold_m.cells_cached, 0u);
  EXPECT_EQ(cold_m.cache_hits, 0u);
  EXPECT_EQ(cold_m.cache_misses, n_cells);
  EXPECT_EQ(cold_m.trials_executed,
            n_cells * static_cast<std::uint64_t>(spec.trials));
  EXPECT_GT(cold_m.trials_per_sec(), 0.0);
  EXPECT_EQ(cold_m.cell_duration.total(), n_cells);

  RunTelemetry warm;
  opt.telemetry = &warm;
  scenario::run_sweep(spec, opt);
  const RunMetrics warm_m = warm.snapshot();
  EXPECT_EQ(warm_m.cache_hits, n_cells);
  EXPECT_EQ(warm_m.cache_misses, 0u);
  EXPECT_EQ(warm_m.cells_cached, n_cells);
  EXPECT_EQ(warm_m.cells_computed, 0u);
  EXPECT_EQ(warm_m.trials_executed, 0u);
}

TEST(Telemetry, ShardMetricsAggregateExactlyThroughArtifacts) {
  const scenario::ScenarioSpec spec = golden_spec("step_async");
  const scenario::SweepPlan plan = scenario::make_plan(spec);
  const std::string dir = scratch_dir("shards");
  const std::size_t n_shards = 3;

  // Run each shard with its own telemetry; embed the metrics in the
  // artifact exactly like `search_lab run --shard` does.
  RunMetrics expected;
  std::vector<std::string> paths;
  std::vector<scenario::CellResult> first_shard;
  for (std::size_t s = 1; s <= n_shards; ++s) {
    RunTelemetry tel;
    scenario::SweepOptions opt;
    opt.threads = 2;
    opt.telemetry = &tel;
    const std::vector<scenario::CellResult> results =
        scenario::run_shard(plan, s, n_shards, opt);
    const std::string path = dir + "/shard" + std::to_string(s) + ".shard";
    const RunMetrics metrics = tel.snapshot();
    scenario::write_shard(path, plan, s, n_shards, results, &metrics);
    expected.merge(metrics);
    paths.push_back(path);
    if (s == 1) first_shard = results;

    // The artifact carries the metrics line and it parses back to the same
    // record.
    const std::string line =
        scenario::BinaryArtifactReader(path).metrics_line();
    ASSERT_FALSE(line.empty());
    std::size_t shard_back = 0, n_back = 0;
    const RunMetrics back =
        metrics_from_json(line, nullptr, &shard_back, &n_back);
    EXPECT_EQ(shard_back, s);
    EXPECT_EQ(n_back, n_shards);
    EXPECT_EQ(back.trials_executed, metrics.trials_executed);
  }

  RunMetrics merged;
  scenario::merge_shards(plan, paths, &merged);
  EXPECT_EQ(merged.cells_total, plan.cells.size());
  EXPECT_EQ(merged.cells_computed, plan.cells.size());
  EXPECT_EQ(merged.trials_executed,
            plan.cells.size() * static_cast<std::uint64_t>(spec.trials));
  EXPECT_EQ(merged.trials_executed, expected.trials_executed);
  EXPECT_EQ(merged.plan_us, expected.plan_us);
  EXPECT_EQ(merged.execute_us, expected.execute_us);
  // The sketch aggregation is EXACT: merged bins equal the bin-wise sum of
  // the per-shard sketches, so campaign quantiles match what one process
  // would have reported over the same cell durations.
  EXPECT_EQ(merged.cell_duration.sparse_bins(),
            expected.cell_duration.sparse_bins());
  EXPECT_EQ(merged.cell_duration.total(), plan.cells.size());

  // Artifacts without metrics lines still merge — metrics are optional.
  scenario::write_shard(dir + "/bare.shard", plan, 1, n_shards, first_shard);
  RunMetrics partial;
  std::vector<std::string> mixed = paths;
  mixed[0] = dir + "/bare.shard";
  scenario::merge_shards(plan, mixed, &partial);
  EXPECT_LT(partial.trials_executed, merged.trials_executed);
}

TEST(Telemetry, EventLogThrowsOnUnwritablePath) {
  EXPECT_THROW(EventLog("/nonexistent-dir-xyz/events.jsonl"),
               std::runtime_error);
  EXPECT_THROW(
      RunTelemetry(TelemetryConfig{"/nonexistent-dir-xyz/e.jsonl", "", 1000}),
      std::runtime_error);
}

}  // namespace
}  // namespace ants::telemetry
