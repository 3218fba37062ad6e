// The cell cache: one append-only journal per cache_dir.
//
// Every completed cell appends one CRC-framed record to <cache_dir>/
// cache.pack; a run loads the journal once (one mmap) into an in-memory
// hash map, so a warm sweep pays one file read plus hash lookups however
// many cells it has.
//
// Layout:
//
//   header:  magic "ANTSPCK\x01" (8 bytes)
//            u32 format_version       scenario::cell_format_version()
//            u32 n_fields             agg_field_count() at write time
//            u64 names_size + names blob (agg_field_names_blob())
//            u32 header_crc           CRC-32 of the bytes after the magic
//   records: u32 record magic "PCK1"
//            u64 cell hash
//            f64-bits value[n_fields] (aggregate table order)
//            u32 record_crc           CRC-32 of hash + values
//
// The journal is created on the first store. The header is written to a
// unique temp file and link()ed into place, so when several shard
// processes make that first store at once exactly one header wins and
// nobody's records are clobbered (a rename could replace a journal another
// process has already appended to). Every writer then appends with
// O_APPEND, one write() per record. Records are self-framed (magic + CRC):
// a torn or interleaved tail fails its CRC and the reader resynchronizes
// on the next record magic, counting what it skipped. Duplicate hashes are
// legal — last record wins — which is what makes the journal appendable
// without coordination.
//
// A journal whose header does not describe the running build (version,
// field count, names) is a CacheJournalError naming the file: it is never
// read and never appended to. So is a journal that cannot be created or
// opened for append.
//
// The killed-shard resume contract: finalize_cell appends each cell the
// moment it completes, so a rerun after SIGKILL reuses every completed
// cell and recomputes only the ones whose records never landed (or were
// torn).
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/sweep.h"

namespace ants::scenario {

/// A cache journal this build cannot use: written by an incompatible
/// build, or not creatable/appendable. The message names the file.
class CacheJournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The in-memory index over one cache journal, loaded once per run_cells.
/// Lookups and appends are thread-safe within the process; appends from
/// concurrent shard processes are safe via O_APPEND + per-record framing.
class PackedCacheIndex {
 public:
  /// Loads <dir>/cache.pack if it exists. Corrupt records are skipped and
  /// counted; an incompatible header throws CacheJournalError.
  explicit PackedCacheIndex(const std::string& dir);
  ~PackedCacheIndex();

  PackedCacheIndex(const PackedCacheIndex&) = delete;
  PackedCacheIndex& operator=(const PackedCacheIndex&) = delete;

  /// True when a journal existed at construction (it may still be empty).
  bool present() const noexcept { return present_; }
  /// Distinct hashes in the index.
  std::size_t size() const noexcept { return index_.size(); }
  /// Torn or corrupt journal stretches skipped during load.
  std::size_t corrupt_records() const noexcept { return corrupt_records_; }

  /// On hit, loads the aggregates into `result` (which keeps its Cell).
  bool load(std::uint64_t hash, CellResult* result) const;

  /// Appends one CRC-framed record to the journal — creating it on first
  /// use — and updates the in-memory index. Throws CacheJournalError if
  /// the journal cannot be opened or the write fails.
  void append(std::uint64_t hash, const CellResult& result);

 private:
  std::string dir_;
  bool present_ = false;
  int fd_ = -1;  ///< journal descriptor, O_APPEND, opened on first append
  std::size_t corrupt_records_ = 0;
  std::unordered_map<std::uint64_t, std::vector<double>> index_;
  mutable std::mutex mutex_;
};

}  // namespace ants::scenario
