// Low-overhead run metrics: monotonic counters, wall-time phase timers, and
// stats::Histogram-backed duration sketches.
//
// Contract: telemetry is strictly observational. Nothing here may feed a
// cache key, a cell seed, or a sink column — result rows must stay
// byte-identical with telemetry on or off (test-enforced against the golden
// CSVs). And it must cost nothing when off: every instrumented call site
// guards on a null telemetry pointer, so a disabled run pays one branch per
// hook, not a clock read (the gating benchmark job pins this).
//
// Counters and timers are thread-safe (relaxed atomics — they are
// monotonic tallies, not synchronization). DurationSketch serializes adds
// under its own mutex; samples are per-cell completions and phase ends, so
// contention is negligible next to trial execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.h"

namespace ants::telemetry {

/// Monotonic microseconds from the steady clock — for durations and trace
/// timestamps, never wall-calendar time.
std::int64_t now_us() noexcept;

/// Wall-clock milliseconds since the Unix epoch — for event-log timestamps
/// a human or a campaign daemon can correlate across machines.
std::int64_t wall_ms() noexcept;

/// A monotonic tally. Copyable snapshot via value().
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Accumulates wall time across (possibly concurrent) timed sections.
class Timer {
 public:
  /// RAII section: adds the elapsed microseconds to the timer on scope
  /// exit. A null timer is a no-op — call sites stay unconditional.
  class Scope {
   public:
    explicit Scope(Timer* timer) noexcept
        : timer_(timer), start_us_(timer ? now_us() : 0) {}
    ~Scope() {
      if (timer_ != nullptr) timer_->add_us(now_us() - start_us_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Timer* timer_;
    std::int64_t start_us_;
  };

  void add_us(std::int64_t us) noexcept {
    us_.fetch_add(us, std::memory_order_relaxed);
  }
  std::int64_t value_us() const noexcept {
    return us_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> us_{0};
};

/// Bounded-memory duration distribution: a fixed-bin stats::Histogram over
/// log2(microseconds), giving ~5% relative resolution from 1 us to ~2 weeks
/// out of kBins * 8 bytes. The fixed binning is what makes shard
/// aggregation exact — merging is a bin-wise sum, so quantiles of a merged
/// sketch equal quantiles of the sketch a single process would have built.
class DurationSketch {
 public:
  /// log2-domain extent: [2^0, 2^40) us. Out-of-range samples saturate
  /// into the edge bins (sub-microsecond cells read as ~1 us).
  static constexpr double kLog2Lo = 0.0;
  static constexpr double kLog2Hi = 40.0;
  static constexpr std::size_t kBins = 512;

  DurationSketch() : hist_(kLog2Lo, kLog2Hi, kBins) {}
  DurationSketch(const DurationSketch& other);
  DurationSketch& operator=(const DurationSketch& other);

  void add_us(double us);

  /// p-quantile in microseconds (NaN when empty).
  double quantile_us(double p) const;

  std::uint64_t total() const;

  /// Exact bin-wise aggregation (see class comment).
  void merge(const DurationSketch& other);

  /// Occupied bins as (bin, count) pairs — the sparse serialization the
  /// shard artifacts and metrics JSON embed.
  std::vector<std::pair<std::size_t, std::uint64_t>> sparse_bins() const;

  /// Rebuilds a serialized sketch. Throws std::out_of_range on a bin index
  /// from an incompatible producer.
  void add_sparse_bins(
      const std::vector<std::pair<std::size_t, std::uint64_t>>& bins);

  /// (underflow, overflow) saturation counters: samples clipped into the
  /// edge bins. The sparse bins alone cannot reconstruct these — a reader
  /// must carry them separately (metrics JSON: cell_hist_under/_over) and
  /// restore them with add_saturation, or the rebuilt sketch silently
  /// misreads clipped samples as in-range values.
  std::pair<std::uint64_t, std::uint64_t> saturation() const;
  void add_saturation(std::uint64_t under, std::uint64_t over);

  /// A copy of the underlying log2-domain histogram (for rendering).
  stats::Histogram log2_histogram() const;

 private:
  mutable std::mutex mutex_;
  stats::Histogram hist_;
};

/// The serializable per-run (or per-shard) metrics record: what
/// `--metrics-out` writes, what shard artifacts embed, and what
/// merge_shards re-aggregates. Plain data — collection lives in
/// RunTelemetry (run_telemetry.h).
struct RunMetrics {
  std::uint64_t cells_total = 0;     ///< cells this run was asked for
  std::uint64_t cells_computed = 0;  ///< cells that actually ran trials
  std::uint64_t cells_cached = 0;    ///< cells served from the result cache
  std::uint64_t trials_executed = 0; ///< trials run (cached cells run none)
  std::uint64_t cache_hits = 0;      ///< cache lookups that hit
  std::uint64_t cache_misses = 0;    ///< cache lookups that missed
  /// Damaged stretches of the cache journal (a torn or bit-rotted record
  /// failing its CRC). The cells they held count as misses — they
  /// recompute and append — but a corruption rate is an operational signal
  /// a plain miss is not.
  std::uint64_t cache_corrupt = 0;
  /// Trials the batch executor delegated to the scalar plane engine
  /// (plane::run_plane_trial). Only plane strategies under a dynamic
  /// target process (windows/collect) delegate; grid cells never do.
  /// Nonzero outside that case means a routing regression.
  std::uint64_t batch_scalar_fallback = 0;
  std::int64_t plan_us = 0;          ///< plan phase (flatten/make_plan) wall
  std::int64_t execute_us = 0;       ///< execute phase (trial loop) wall
  std::int64_t merge_us = 0;         ///< merge phase (merge_shards) wall
  DurationSketch cell_duration;      ///< computed-cell wall times

  /// Trials per wall-second of the execute phase (0 when nothing ran).
  double trials_per_sec() const noexcept;

  /// Counter sums + phase-time sums + exact sketch merge — how
  /// merge_shards folds per-shard metrics into a campaign-level record.
  void merge(const RunMetrics& other);
};

/// One line of flat JSON (no trailing newline) carrying every RunMetrics
/// field, the derived trials/sec and p50/p90/p99 cell durations, and the
/// sparse sketch bins. `scenario`/`shard`/`n_shards` identify the run
/// (shard = 0 means unsharded).
std::string metrics_to_json(const RunMetrics& metrics,
                            const std::string& scenario, std::size_t shard,
                            std::size_t n_shards);

/// Parses metrics_to_json output (e.g. for `search_lab report`). Throws
/// std::invalid_argument on malformed input; `scenario`/`shard`/`n_shards`
/// receive the identity fields when non-null.
RunMetrics metrics_from_json(const std::string& line, std::string* scenario,
                             std::size_t* shard, std::size_t* n_shards);

}  // namespace ants::telemetry
