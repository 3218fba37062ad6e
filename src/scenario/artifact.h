// Binary columnar shard artifacts: the interchange file between one
// run_shard process and merge_shards.
//
// An artifact stores a self-describing header (format version, spec hash,
// the full canonical spec text, shard coordinates, total cell count) and
// the per-cell aggregates as fixed-width column arrays — one u64
// cell_index column, one f64 column per entry of the shared aggregate
// table (agg_fields.h), one u8 from_cache column — so a reader can mmap
// the file and load any value with pointer arithmetic instead of parsing
// text. Doubles are stored as raw IEEE-754 bit patterns, which makes the
// round-trip exact by construction: merged CSVs are byte-identical to the
// single-process run.
//
// Layout (all integers little-endian; offsets 8-byte aligned):
//
//   [0]   magic            8 bytes  "ANTSHRD\x01"
//   [8]   meta section:
//           u32 format_version      scenario::cell_format_version() stamp
//           u32 n_fields            agg_field_count() at write time
//           u64 spec_hash
//           u64 shard               1-based
//           u64 n_shards
//           u64 n_cells_total       cells in the whole plan
//           u64 n_cells_shard       rows in this artifact
//           u64 spec_text_size
//           u64 metrics_size        0 = no telemetry line
//           u64 names_size          agg_field_names_blob() size
//           spec_text, metrics line, names blob (raw bytes, no terminators)
//           u32 meta_crc            CRC-32 of every meta byte above
//           zero padding to the next 8-byte boundary
//   [..]  columns section:
//           u64 cell_index[n_cells_shard]
//           f64-bits agg[field][n_cells_shard]   one array per table entry,
//                                                table order
//           u8  from_cache[n_cells_shard]
//           u32 columns_crc         CRC-32 of the whole columns section
//
// The two CRCs split corruption from incompatibility: a meta CRC or magic
// failure means the file is damaged or not ours; a names-blob mismatch
// against the running build's table means the artifact was written by an
// incompatible build and must be regenerated. Truncation always lands in
// the columns CRC (or an out-of-bounds section size), never in silently
// short reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "scenario/sweep.h"
#include "util/mmap.h"

namespace ants::scenario {

struct ShardHeader {
  int format_version = 0;       ///< scenario::cell_format_version() stamp
  std::uint64_t spec_hash = 0;  ///< scenario::hash_spec of the plan's spec
  std::string spec_text;        ///< canonical spec (parse_spec_text form)
  std::size_t shard = 0;        ///< 1-based shard index
  std::size_t n_shards = 0;
  std::size_t n_cells_total = 0;  ///< cells in the WHOLE plan, not the shard
};

/// Writes header + one row per result in the binary columnar layout:
/// row j is plan cell `cell_indices[j]` with the aggregates of
/// `results[j]`, serialized straight through the aggregate table. Atomic
/// (unique temp + rename), so a killed writer never publishes a partial
/// artifact. `metrics_line` (optional) is telemetry::metrics_to_json
/// output carried in the meta section.
void write_binary_artifact(const std::string& path, const ShardHeader& header,
                           const std::vector<std::size_t>& cell_indices,
                           const std::vector<CellResult>& results,
                           const std::string* metrics_line = nullptr);

/// Zero-copy reader over one mmap'ed binary artifact. Construction
/// validates magic, both CRCs, section bounds, and the embedded aggregate
/// field names against the running build's table, throwing
/// std::invalid_argument ("shard artifact <path>: <what>") on any failure —
/// after that, every accessor is a plain aligned-or-memcpy load.
class BinaryArtifactReader {
 public:
  explicit BinaryArtifactReader(const std::string& path);

  const ShardHeader& header() const noexcept { return header_; }
  const std::string& metrics_line() const noexcept { return metrics_line_; }
  std::size_t n_cells() const noexcept { return n_cells_; }

  std::uint64_t cell_index(std::size_t i) const noexcept;
  /// Value of aggregate-table column `field` (0-based, table order) for
  /// row i, bit-exact as written.
  double value(std::size_t field, std::size_t i) const noexcept;
  bool from_cache(std::size_t i) const noexcept;

  /// Loads row i's aggregates and from_cache flag into `result`; its Cell
  /// is left alone (merge and catalog attach it from the plan).
  void load(std::size_t i, CellResult* result) const;

 private:
  util::MappedFile map_;
  ShardHeader header_;
  std::string metrics_line_;
  std::size_t n_cells_ = 0;
  std::size_t n_fields_ = 0;
  std::size_t columns_off_ = 0;  ///< byte offset of cell_index[0]
};

namespace detail {

/// CRC-32 (IEEE 802.3, reflected) over a byte range. Shared by the binary
/// artifact sections and the cache journal records.
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

// Fixed-width field helpers for both binary formats. Every multi-byte
// value is written and read as little-endian bytes; the build targets
// little-endian x86 (the SIMD batch executor already assumes it), so they
// are plain memcpy.

inline void append_u32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void append_u64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Writes `bytes` to a temp file beside `path` that no other writer —
/// thread or process — can collide on, and returns its name. A short write
/// (e.g. disk full) removes the temp and throws std::runtime_error.
std::string write_temp(const std::string& path, const std::string& bytes);

/// write_temp, then rename onto `path`: readers see the old file or the
/// complete new one, never a torn one.
void atomic_write(const std::string& path, const std::string& bytes);

}  // namespace detail

}  // namespace ants::scenario
