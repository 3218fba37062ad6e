// The cell cache journal (scenario/cache_pack.h) and the corrupt-cache
// recovery contract (sink.h cache_lookup): warm sweeps served from the
// journal must stay byte-identical to the golden CSVs, racing first stores
// from threads and processes must leave exactly one header, a journal cut
// mid-record must cost only the lost cells, a damaged record must read as
// a miss — recompute, append, count in telemetry — never abort, and a
// journal this build cannot use must be a typed error, never a silent
// fallback.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/agg_fields.h"
#include "scenario/cache_pack.h"
#include "scenario/plan.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "telemetry/run_telemetry.h"

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

std::string golden_csv(const std::string& stem) {
  return read_file(std::string(ANTS_SOURCE_DIR) + "/tests/golden/" + stem +
                   ".golden.csv");
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ants_pack_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

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

std::vector<std::string> dir_entries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

std::size_t count_cached(const std::vector<CellResult>& results) {
  std::size_t n = 0;
  for (const CellResult& r : results) n += r.from_cache ? 1 : 0;
  return n;
}

/// Bytes of one journal record: magic + hash + values + CRC.
std::size_t record_bytes() { return 4 + 8 + 8 * detail::agg_field_count() + 4; }

/// The message of the CacheJournalError `fn` must throw.
template <typename Fn>
std::string journal_error(Fn&& fn) {
  try {
    fn();
  } catch (const CacheJournalError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected CacheJournalError";
  return "";
}

// --- warm sweep from the journal: the byte-identity spine --------------------

void check_warm_identity(const std::string& stem) {
  const ScenarioSpec spec = golden_spec(stem);
  const std::string golden = golden_csv(stem);
  const std::string dir = scratch_dir("warm_" + stem);

  SweepOptions opt;
  opt.cache_dir = dir + "/cache";
  const std::vector<CellResult> cold = run_sweep(spec, opt);
  EXPECT_EQ(render_csv(spec, cold, dir + "/cold.csv"), golden)
      << stem << " cold cached run diverged from golden";
  EXPECT_EQ(dir_entries(opt.cache_dir), std::vector<std::string>{"cache.pack"})
      << "the journal is the whole cache: no per-cell files, no temps";

  const std::vector<CellResult> warm = run_sweep(spec, opt);
  EXPECT_EQ(count_cached(warm), warm.size())
      << stem << ": every cell must be served from the journal";
  EXPECT_EQ(render_csv(spec, warm, dir + "/warm.csv"), golden)
      << stem << " warm run diverged from golden";
}

TEST(CacheJournal, StepAsyncWarmRunIsByteIdentical) {
  check_warm_identity("step_async");
}

TEST(CacheJournal, PlaneBaseWarmRunIsByteIdentical) {
  check_warm_identity("plane_base");
}

TEST(CacheJournal, AllOtherGoldenWarmRunsAreByteIdentical) {
  for (const char* stem :
       {"sync", "async_crash", "placement_sweep", "multi_target",
        "plane_async", "stochastic_targets", "segment_windows",
        "segment_windows_first"}) {
    check_warm_identity(stem);
  }
}

// --- racing first stores -------------------------------------------------------

TEST(CacheJournal, ConcurrentFirstStoresLeaveExactlyOneHeader) {
  // 3 forked processes and 8 threads make the first store into one empty
  // cache_dir at the same moment. link() publishes exactly one header; every
  // writer then appends, so every record of every writer must load.
  const std::string dir = scratch_dir("first_store") + "/cache";
  const std::string go = scratch_dir("first_store_go") + "/go";
  constexpr int kProcesses = 3;
  constexpr int kThreads = 8;
  constexpr int kRecords = 40;
  const auto hash_of = [](int writer, int i) {
    return 0x5EED000000000000ULL + static_cast<std::uint64_t>(writer) * 1000 +
           static_cast<std::uint64_t>(i);
  };
  const auto result_of = [](int writer, int i) {
    CellResult r;
    r.mean_last_start = writer;
    r.stats.time.mean = i;
    return r;
  };

  // Fork before any thread exists; children wait for the go file.
  std::vector<pid_t> children;
  for (int p = 0; p < kProcesses; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int status = 0;
      try {
        while (!std::filesystem::exists(go)) std::this_thread::yield();
        for (int i = 0; i < kRecords; ++i) {
          cache_store(dir, hash_of(p, i), result_of(p, i));
        }
      } catch (...) {
        status = 1;
      }
      ::_exit(status);
    }
    children.push_back(pid);
  }

  // Half the threads store through one-shot cache_store calls, half through
  // an index constructed before the journal existed.
  std::atomic<bool> start{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    const int writer = kProcesses + t;
    threads.emplace_back([&, writer] {
      try {
        PackedCacheIndex index(dir);
        while (!start.load()) std::this_thread::yield();
        for (int i = 0; i < kRecords; ++i) {
          if (writer % 2 == 0) {
            cache_store(dir, hash_of(writer, i), result_of(writer, i));
          } else {
            index.append(hash_of(writer, i), result_of(writer, i));
          }
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  write_file(go, "");
  start.store(true);
  for (std::thread& t : threads) t.join();
  for (const pid_t pid : children) {
    int status = -1;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child store failed";
  }
  EXPECT_EQ(failures.load(), 0);

  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"cache.pack"})
      << "losing header temps must be removed";
  const std::string journal = read_file(dir + "/cache.pack");
  const std::string magic("ANTSPCK\x01", 8);
  EXPECT_EQ(journal.find(magic), 0u);
  EXPECT_EQ(journal.find(magic, 1), std::string::npos)
      << "a second header landed inside the journal";

  const PackedCacheIndex index(dir);
  EXPECT_EQ(index.corrupt_records(), 0u);
  ASSERT_EQ(index.size(),
            static_cast<std::size_t>((kProcesses + kThreads) * kRecords));
  for (int writer = 0; writer < kProcesses + kThreads; ++writer) {
    for (int i = 0; i < kRecords; ++i) {
      CellResult loaded;
      ASSERT_TRUE(index.load(hash_of(writer, i), &loaded));
      EXPECT_EQ(loaded.mean_last_start, writer);
      EXPECT_EQ(loaded.stats.time.mean, i);
    }
  }
}

TEST(CacheJournal, ConcurrentStoresOfOneCellNeverTear) {
  // Shard processes sharing a cache_dir can race on a cell (e.g. the same
  // spec launched twice). Each store is one O_APPEND write of a framed
  // record, so every load observes one writer's record in full — last one
  // wins — never a mix.
  const ScenarioSpec spec = golden_spec("step_async");
  const std::vector<CellResult> seed_results = run_sweep(spec);
  ASSERT_FALSE(seed_results.empty());
  const CellResult& sample = seed_results.front();

  const std::string dir = scratch_dir("atomic") + "/cache";
  constexpr std::uint64_t kHash = 0xDEADBEEFCAFEF00DULL;
  constexpr int kIterations = 200;

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w]() {
      CellResult mine = sample;
      mine.mean_last_start = w;
      for (int i = 0; i < kIterations; ++i) cache_store(dir, kHash, mine);
    });
  }
  {
    CellResult first;
    while (!std::filesystem::exists(dir + "/cache.pack") ||
           cache_lookup(dir, kHash, &first) != CacheLookup::kHit) {
      std::this_thread::yield();
    }
  }
  std::size_t loads = 0;
  for (int i = 0; i < kIterations; ++i) {
    CellResult loaded;
    if (cache_lookup(dir, kHash, &loaded) == CacheLookup::kHit) {
      ++loads;
      EXPECT_EQ(loaded.stats.time.mean, sample.stats.time.mean);
      EXPECT_GE(loaded.mean_last_start, 0.0);
      EXPECT_LT(loaded.mean_last_start, 4.0);
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_GT(loads, 0u) << "reader never saw a published entry";
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"cache.pack"});
  const PackedCacheIndex index(dir);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.corrupt_records(), 0u);
}

// --- killed shard: a journal cut mid-record ------------------------------------

TEST(CacheJournal, TruncatedJournalRecomputesOnlyTheLostCells) {
  const ScenarioSpec spec = golden_spec("step_async");
  const std::string golden = golden_csv("step_async");
  const std::string dir = scratch_dir("truncate");
  SweepOptions opt;
  opt.cache_dir = dir + "/cache";
  const std::string journal = opt.cache_dir + "/cache.pack";

  const std::vector<CellResult> cold = run_sweep(spec, opt);
  const std::size_t n = cold.size();
  ASSERT_GE(n, 2u);
  const std::size_t size = std::filesystem::file_size(journal);
  ASSERT_GT(size, n * record_bytes());
  const std::size_t header = size - n * record_bytes();

  // The kill analog: the process died halfway through appending record
  // `kept`, so it and everything after it never landed.
  const std::size_t kept = n / 2;
  std::filesystem::resize_file(
      journal, header + kept * record_bytes() + record_bytes() / 2);

  telemetry::RunTelemetry tel;
  SweepOptions opt_tel = opt;
  opt_tel.telemetry = &tel;
  const std::vector<CellResult> resumed = run_sweep(spec, opt_tel);
  EXPECT_EQ(count_cached(resumed), kept);
  EXPECT_EQ(tel.snapshot().cache_hits, kept);
  EXPECT_EQ(tel.snapshot().cache_corrupt, 1u)
      << "the torn record is one damaged stretch";
  EXPECT_EQ(render_csv(spec, resumed, dir + "/resumed.csv"), golden);

  // The recomputed cells appended after the torn bytes: a third run is
  // fully warm.
  const std::vector<CellResult> warm = run_sweep(spec, opt);
  EXPECT_EQ(count_cached(warm), n);
  EXPECT_EQ(render_csv(spec, warm, dir + "/warm.csv"), golden);
}

// --- journal robustness ----------------------------------------------------------

TEST(CacheJournal, TornJournalTailIsSkippedAndCounted) {
  const ScenarioSpec spec = golden_spec("sync");
  const std::string dir = scratch_dir("torn");
  SweepOptions opt;
  opt.cache_dir = dir;
  const std::vector<CellResult> cold = run_sweep(spec, opt);

  // A write torn mid-record: garbage bytes at the journal tail.
  {
    std::ofstream out(dir + "/cache.pack",
                      std::ios::binary | std::ios::app);
    out << "PCK1torn-and-useless";
  }
  PackedCacheIndex index(dir);
  EXPECT_TRUE(index.present());
  EXPECT_EQ(index.size(), cold.size())
      << "intact records before the tear must all survive";
  EXPECT_GE(index.corrupt_records(), 1u);

  // The sweep serves every cell despite the tear and reports the
  // corruption through telemetry.
  telemetry::RunTelemetry tel;
  SweepOptions opt_tel = opt;
  opt_tel.telemetry = &tel;
  const std::vector<CellResult> warm = run_sweep(spec, opt_tel);
  EXPECT_EQ(count_cached(warm), warm.size());
  EXPECT_GE(tel.snapshot().cache_corrupt, 1u);
  EXPECT_EQ(render_csv(spec, warm, dir + "/warm.csv"), golden_csv("sync"));
}

TEST(CacheJournal, DamagedRecordReadsAsCorruptRecomputesAndHeals) {
  const ScenarioSpec spec = golden_spec("sync");
  const std::string golden = golden_csv("sync");
  const std::string dir = scratch_dir("heal");
  SweepOptions opt;
  opt.cache_dir = dir;
  const std::vector<CellResult> cold = run_sweep(spec, opt);
  const std::string journal = dir + "/cache.pack";

  // Bit rot inside the first record's values: its CRC fails.
  std::string bytes = read_file(journal);
  const std::size_t header = bytes.size() - cold.size() * record_bytes();
  bytes[header + 20] ^= 0x10;
  write_file(journal, bytes);

  // cache_lookup reports kCorrupt for the lost cell, distinctly from a hit.
  const SweepPlan plan = make_plan(spec);
  std::size_t hits = 0, corrupt = 0;
  for (const Cell& cell : plan.cells) {
    CellResult probe;
    switch (cache_lookup(dir, cell.hash, &probe)) {
      case CacheLookup::kHit: ++hits; break;
      case CacheLookup::kCorrupt: ++corrupt; break;
      case CacheLookup::kMiss: break;
    }
  }
  EXPECT_EQ(hits, plan.cells.size() - 1);
  EXPECT_EQ(corrupt, 1u);

  // The sweep recomputes that cell (never aborts), counts the damage, and
  // emits golden-identical output.
  telemetry::RunTelemetry tel;
  SweepOptions opt_tel = opt;
  opt_tel.telemetry = &tel;
  const std::vector<CellResult> healed = run_sweep(spec, opt_tel);
  EXPECT_EQ(count_cached(healed), healed.size() - 1);
  EXPECT_EQ(tel.snapshot().cache_corrupt, 1u);
  EXPECT_EQ(render_csv(spec, healed, dir + "/healed.csv"), golden);

  // The recomputed cell appended: the next run is fully warm.
  const std::vector<CellResult> warm = run_sweep(spec, opt);
  EXPECT_EQ(count_cached(warm), warm.size());
  EXPECT_EQ(render_csv(spec, warm, dir + "/warm.csv"), golden);
}

TEST(CacheJournal, LeftoverCellFilesAreIgnored) {
  // Per-hash files from older builds are not a cache layout any more: they
  // are neither read nor removed, and every cell computes and appends.
  const ScenarioSpec spec = golden_spec("sync");
  const std::string dir = scratch_dir("leftover");
  const SweepPlan plan = make_plan(spec);
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.cell",
                static_cast<unsigned long long>(plan.cells.front().hash));
  write_file(dir + "/" + name, "n=1\nmean=12345\n");

  SweepOptions opt;
  opt.cache_dir = dir;
  const std::vector<CellResult> first = run_sweep(spec, opt);
  EXPECT_EQ(count_cached(first), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + name));
  EXPECT_EQ(render_csv(spec, first, dir + "/first.csv"), golden_csv("sync"));
  EXPECT_EQ(count_cached(run_sweep(spec, opt)), first.size());
}

// --- a journal this build cannot use is a typed error -------------------------

TEST(CacheJournal, IncompatibleJournalHeaderIsATypedError) {
  const ScenarioSpec spec = golden_spec("sync");
  const std::string dir = scratch_dir("badheader");
  const std::string journal = dir + "/cache.pack";

  // A journal from another build: right magic, stale format version.
  std::string stale("ANTSPCK\x01", 8);
  stale += std::string("\x01\x00\x00\x00", 4);
  stale += std::string(64, '\x5a');
  write_file(journal, stale);

  std::string what = journal_error([&] { PackedCacheIndex index(dir); });
  EXPECT_NE(what.find(journal), std::string::npos) << what;
  EXPECT_NE(what.find("format version 1"), std::string::npos) << what;

  SweepOptions opt;
  opt.cache_dir = dir;
  what = journal_error([&] { run_sweep(spec, opt); });
  EXPECT_NE(what.find(journal), std::string::npos) << what;

  // Nothing is ever appended to it.
  what = journal_error(
      [&] { cache_store(dir, make_plan(spec).cells.front().hash, {}); });
  EXPECT_NE(what.find(journal), std::string::npos) << what;
  EXPECT_EQ(read_file(journal), stale);

  // Not a journal at all: named as such.
  write_file(journal, std::string(256, '\x5a'));
  what = journal_error([&] { PackedCacheIndex index(dir); });
  EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
}

TEST(CacheJournal, UnwritableJournalIsATypedError) {
  // The cache_dir sits under a regular file, so neither it nor the journal
  // can be created — whoever runs the test.
  const std::string base = scratch_dir("unwritable");
  write_file(base + "/file", "not a directory");
  const std::string dir = base + "/file/cache";

  std::string what = journal_error([&] { cache_store(dir, 1, {}); });
  EXPECT_NE(what.find(dir + "/cache.pack"), std::string::npos) << what;

  const ScenarioSpec spec = golden_spec("sync");
  SweepOptions opt;
  opt.cache_dir = dir;
  what = journal_error([&] { run_sweep(spec, opt); });
  EXPECT_NE(what.find(dir + "/cache.pack"), std::string::npos) << what;
}

TEST(CacheCorruption, CacheCorruptCounterRoundTripsThroughMetricsJson) {
  telemetry::RunMetrics metrics;
  metrics.cache_corrupt = 7;
  metrics.cache_misses = 7;
  const std::string line =
      telemetry::metrics_to_json(metrics, "pin", 0, 0);
  EXPECT_NE(line.find("\"cache_corrupt\":7"), std::string::npos);
  const telemetry::RunMetrics back =
      telemetry::metrics_from_json(line, nullptr, nullptr, nullptr);
  EXPECT_EQ(back.cache_corrupt, 7u);

  // Aggregation folds it like every other counter.
  telemetry::RunMetrics sum;
  sum.merge(metrics);
  sum.merge(back);
  EXPECT_EQ(sum.cache_corrupt, 14u);
}

}  // namespace
}  // namespace ants::scenario
