#include "scenario/artifact.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "scenario/agg_fields.h"

namespace ants::scenario {

namespace detail {

namespace {

// Table-driven CRC-32 (polynomial 0xEDB88320, the reflected IEEE form).
// Built once at first use; the table is 1 KiB and the loop is fast enough
// for per-section checksums — the artifacts are read via mmap, so the CRC
// pass is the only full scan a reader ever does.
struct Crc32Table {
  std::uint32_t entries[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  static const Crc32Table table;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table.entries[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string write_temp(const std::string& path, const std::string& bytes) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long long>(::getpid())) +
                          "." + std::to_string(counter.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write file: " + tmp);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    out.close();
    std::filesystem::remove(tmp);
    throw std::runtime_error("failed writing file: " + tmp);
  }
  return tmp;
}

void atomic_write(const std::string& path, const std::string& bytes) {
  std::filesystem::rename(write_temp(path, bytes), path);
}

}  // namespace detail

namespace {

using detail::append_u32;
using detail::append_u64;
using detail::load_u32;
using detail::load_u64;

constexpr char kMagic[8] = {'A', 'N', 'T', 'S', 'H', 'R', 'D', '\x01'};

[[noreturn]] void bad_artifact(const std::string& path,
                               const std::string& what) {
  throw std::invalid_argument("shard artifact " + path + ": " + what);
}

}  // namespace

void write_binary_artifact(const std::string& path, const ShardHeader& header,
                           const std::vector<std::size_t>& cell_indices,
                           const std::vector<CellResult>& results,
                           const std::string* metrics_line) {
  const detail::AggField* fields = detail::agg_fields();
  const std::size_t n_fields = detail::agg_field_count();
  const std::string names = detail::agg_field_names_blob();
  const std::string metrics = metrics_line != nullptr ? *metrics_line : "";
  const std::size_t n = results.size();
  if (cell_indices.size() != n) {
    bad_artifact(path, std::to_string(n) + " results for " +
                           std::to_string(cell_indices.size()) +
                           " cell indices");
  }

  std::string buf;
  buf.reserve(sizeof kMagic + 128 + header.spec_text.size() +
              metrics.size() + names.size() + n * (8 * (n_fields + 1) + 1) +
              16);
  buf.append(kMagic, sizeof kMagic);

  // Meta section (CRC'd from just past the magic).
  const std::size_t meta_begin = buf.size();
  append_u32(&buf, static_cast<std::uint32_t>(header.format_version));
  append_u32(&buf, static_cast<std::uint32_t>(n_fields));
  append_u64(&buf, header.spec_hash);
  append_u64(&buf, header.shard);
  append_u64(&buf, header.n_shards);
  append_u64(&buf, header.n_cells_total);
  append_u64(&buf, n);
  append_u64(&buf, header.spec_text.size());
  append_u64(&buf, metrics.size());
  append_u64(&buf, names.size());
  buf += header.spec_text;
  buf += metrics;
  buf += names;
  append_u32(&buf, detail::crc32(buf.data() + meta_begin,
                                 buf.size() - meta_begin));
  buf.append((8 - buf.size() % 8) % 8, '\0');

  // Columns section: cell_index, one f64-bits array per aggregate field
  // in table order, from_cache flags, then the section CRC.
  const std::size_t columns_begin = buf.size();
  for (const std::size_t index : cell_indices) append_u64(&buf, index);
  for (std::size_t f = 0; f < n_fields; ++f) {
    for (const CellResult& result : results) {
      const double v = fields[f].get(result);
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      append_u64(&buf, bits);
    }
  }
  for (const CellResult& result : results) {
    buf += static_cast<char>(result.from_cache ? 1 : 0);
  }
  append_u32(&buf, detail::crc32(buf.data() + columns_begin,
                                 buf.size() - columns_begin));

  detail::atomic_write(path, buf);
}

BinaryArtifactReader::BinaryArtifactReader(const std::string& path)
    : map_(path) {
  const std::uint8_t* base = map_.data();
  const std::size_t size = map_.size();

  // Fixed-width meta prelude: magic + 2 u32 + 8 u64.
  constexpr std::size_t kPrelude = sizeof kMagic + 2 * 4 + 8 * 8;
  if (size >= sizeof kMagic &&
      std::memcmp(base, kMagic, sizeof kMagic) != 0) {
    bad_artifact(path,
                 "not a binary shard artifact (JSONL artifacts are no "
                 "longer read — re-run the shard)");
  }
  if (size < kPrelude) bad_artifact(path, "truncated (no header)");

  const std::uint8_t* p = base + sizeof kMagic;
  header_.format_version = static_cast<int>(load_u32(p));
  n_fields_ = load_u32(p + 4);
  header_.spec_hash = load_u64(p + 8);
  header_.shard = static_cast<std::size_t>(load_u64(p + 16));
  header_.n_shards = static_cast<std::size_t>(load_u64(p + 24));
  header_.n_cells_total = static_cast<std::size_t>(load_u64(p + 32));
  n_cells_ = static_cast<std::size_t>(load_u64(p + 40));
  const std::uint64_t spec_size = load_u64(p + 48);
  const std::uint64_t metrics_size = load_u64(p + 56);
  const std::uint64_t names_size = load_u64(p + 64);

  // Bounds before CRC: the sizes come from the (not yet verified) header,
  // so clamp against the file before touching the bytes they describe.
  const std::size_t meta_end_unpadded =
      kPrelude + spec_size + metrics_size + names_size + 4;
  if (meta_end_unpadded < kPrelude /* overflow */ ||
      meta_end_unpadded > size) {
    bad_artifact(path, "truncated (meta section exceeds file)");
  }
  const std::size_t meta_crc_off = meta_end_unpadded - 4;
  const std::uint32_t want_meta_crc = load_u32(base + meta_crc_off);
  const std::uint32_t got_meta_crc = detail::crc32(
      base + sizeof kMagic, meta_crc_off - sizeof kMagic);
  if (want_meta_crc != got_meta_crc) {
    bad_artifact(path, "meta section CRC mismatch");
  }

  const std::uint8_t* text = base + kPrelude;
  header_.spec_text.assign(reinterpret_cast<const char*>(text), spec_size);
  metrics_line_.assign(reinterpret_cast<const char*>(text + spec_size),
                       metrics_size);
  const std::string names(
      reinterpret_cast<const char*>(text + spec_size + metrics_size),
      names_size);
  if (n_fields_ != detail::agg_field_count() ||
      names != detail::agg_field_names_blob()) {
    bad_artifact(path,
                 "aggregate field set mismatch — artifact written by an "
                 "incompatible build, regenerate it");
  }

  columns_off_ = (meta_end_unpadded + 7) / 8 * 8;
  const std::size_t columns_size =
      n_cells_ * 8 * (1 + n_fields_) + n_cells_ + 4;
  if (columns_off_ + columns_size != size) {
    bad_artifact(path, "truncated (columns section size mismatch)");
  }
  const std::uint32_t want_cols_crc =
      load_u32(base + size - 4);
  const std::uint32_t got_cols_crc =
      detail::crc32(base + columns_off_, columns_size - 4);
  if (want_cols_crc != got_cols_crc) {
    bad_artifact(path, "columns section CRC mismatch (corrupt or truncated)");
  }
}

std::uint64_t BinaryArtifactReader::cell_index(std::size_t i) const noexcept {
  return load_u64(map_.data() + columns_off_ + i * 8);
}

double BinaryArtifactReader::value(std::size_t field,
                                   std::size_t i) const noexcept {
  const std::uint64_t bits =
      load_u64(map_.data() + columns_off_ + (field + 1) * n_cells_ * 8 +
               i * 8);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool BinaryArtifactReader::from_cache(std::size_t i) const noexcept {
  return map_.data()[columns_off_ + (1 + n_fields_) * n_cells_ * 8 + i] != 0;
}

void BinaryArtifactReader::load(std::size_t i, CellResult* result) const {
  const detail::AggField* fields = detail::agg_fields();
  for (std::size_t f = 0; f < n_fields_; ++f) {
    fields[f].set(*result, value(f, i));
  }
  result->from_cache = from_cache(i);
}

}  // namespace ants::scenario
