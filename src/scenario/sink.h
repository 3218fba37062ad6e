// Result sinks: where a finished sweep's numbers go.
//
// The sweep scheduler produces CellResults; this layer turns them into
// rows — an aligned stdout table, a CSV file, a JSON-lines file, or any
// combination — under a named-column model so a spec can choose exactly the
// columns its table needs. Also the single-cell face of the result cache
// (cell aggregates keyed by the cell's spec hash, so re-running a spec — or
// resuming a killed shard — recomputes only the cells whose definition
// changed); the cache itself is the journal in cache_pack.h. Shard
// artifacts live in artifact.h.
#pragma once

#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "scenario/sweep.h"
#include "util/csv.h"
#include "util/table.h"

namespace ants::scenario {

/// All selectable column names, in display order.
std::vector<std::string> all_columns();

/// The columns used when a spec names none.
std::vector<std::string> default_columns();

bool is_known_column(const std::string& column);

/// Renders one cell of the output row. Throws std::invalid_argument on an
/// unknown column name.
std::string column_value(const std::string& column, const ScenarioSpec& spec,
                         const CellResult& result);

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void begin(const std::vector<std::string>& columns) = 0;
  virtual void row(const std::vector<std::string>& cells) = 0;
  virtual void end() {}
};

/// CSV file via util::CsvWriter.
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(std::string path) : path_(std::move(path)) {}
  void begin(const std::vector<std::string>& columns) override;
  void row(const std::vector<std::string>& cells) override;

 private:
  std::string path_;
  std::unique_ptr<util::CsvWriter> writer_;
};

/// JSON-lines file: one flat object per cell; numeric-looking values are
/// emitted unquoted.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(std::string path) : path_(std::move(path)) {}
  void begin(const std::vector<std::string>& columns) override;
  void row(const std::vector<std::string>& cells) override;

 private:
  std::string path_;
  std::vector<std::string> columns_;
  std::unique_ptr<std::ofstream> out_;
};

/// Aligned table on an ostream, printed at end().
class TableSink final : public ResultSink {
 public:
  explicit TableSink(std::ostream& os) : os_(os) {}
  void begin(const std::vector<std::string>& columns) override;
  void row(const std::vector<std::string>& cells) override;
  void end() override;

 private:
  std::ostream& os_;
  std::unique_ptr<util::Table> table_;
};

/// Streams every result through every sink using the spec's columns (or the
/// defaults when the spec names none).
void emit_results(const ScenarioSpec& spec,
                  const std::vector<CellResult>& results,
                  const std::vector<ResultSink*>& sinks);

// --- per-cell result cache -------------------------------------------------
//
// One-cell convenience calls over the cache journal (cache_pack.h), which
// implements them. A sweep holds one PackedCacheIndex for the whole run
// instead: each call here opens the journal afresh.

/// Outcome of a cache probe. kCorrupt means the cell is not among the
/// journal's intact records AND the journal holds damaged stretches (a
/// torn or bit-rotted record) that may have been it — the sweep treats it
/// exactly like a miss (recompute and append, never abort) but telemetry
/// counts the damage separately (cache_corrupt), because a corruption rate
/// is an operational signal a plain miss is not.
enum class CacheLookup { kMiss, kHit, kCorrupt };

/// Probes <dir>/cache.pack for a cell hash; on kHit the aggregates load
/// into `result` (which keeps its Cell). Loaded stats carry aggregates only
/// (stats.times stays empty). Throws CacheJournalError when the journal was
/// written by an incompatible build.
CacheLookup cache_lookup(const std::string& dir, std::uint64_t hash,
                         CellResult* result);

/// Appends a cell's aggregates to <dir>/cache.pack, creating `dir` and the
/// journal on first store. Safe against concurrent writers — threads and
/// shard processes sharing one cache_dir. Throws CacheJournalError when the
/// journal is incompatible or cannot be written.
void cache_store(const std::string& dir, std::uint64_t hash,
                 const CellResult& result);

}  // namespace ants::scenario
