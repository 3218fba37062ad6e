#include "scenario/cache_pack.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "scenario/agg_fields.h"
#include "scenario/artifact.h"
#include "scenario/plan.h"
#include "scenario/sink.h"
#include "util/mmap.h"

namespace ants::scenario {

namespace {

using detail::append_u32;
using detail::append_u64;
using detail::load_u32;
using detail::load_u64;

constexpr char kPackMagic[8] = {'A', 'N', 'T', 'S', 'P', 'C', 'K', '\x01'};
constexpr char kRecordMagic[4] = {'P', 'C', 'K', '1'};

std::string journal_path(const std::string& dir) {
  return dir + "/cache.pack";
}

[[noreturn]] void journal_error(const std::string& path,
                                const std::string& what) {
  throw CacheJournalError("cache journal " + path + ": " + what);
}

/// The header this build writes — and the only one it accepts.
const std::string& journal_header() {
  static const std::string header = [] {
    const std::string names = detail::agg_field_names_blob();
    std::string buf(kPackMagic, sizeof kPackMagic);
    append_u32(&buf, static_cast<std::uint32_t>(cell_format_version()));
    append_u32(&buf, static_cast<std::uint32_t>(detail::agg_field_count()));
    append_u64(&buf, names.size());
    buf += names;
    append_u32(&buf, detail::crc32(buf.data() + sizeof kPackMagic,
                                   buf.size() - sizeof kPackMagic));
    return buf;
  }();
  return header;
}

/// Throws CacheJournalError, saying what differs, unless the `size` bytes
/// at `base` open with journal_header().
void check_header(const std::string& path, const std::uint8_t* base,
                  std::size_t size) {
  const std::string& want = journal_header();
  if (size >= want.size() &&
      std::memcmp(base, want.data(), want.size()) == 0) {
    return;
  }
  if (size < sizeof kPackMagic ||
      std::memcmp(base, kPackMagic, sizeof kPackMagic) != 0) {
    journal_error(path, "not a cache journal (bad magic)");
  }
  if (size >= sizeof kPackMagic + 4 &&
      load_u32(base + sizeof kPackMagic) !=
          static_cast<std::uint32_t>(cell_format_version())) {
    journal_error(path,
                  "format version " +
                      std::to_string(load_u32(base + sizeof kPackMagic)) +
                      " does not match this build's " +
                      std::to_string(cell_format_version()) +
                      " — delete it to rebuild the cache");
  }
  journal_error(path,
                "header does not match this build's aggregate fields — "
                "delete it to rebuild the cache");
}

/// One journal record: magic + hash + f64-bits values + CRC of the
/// hash-and-values payload.
std::size_t record_size(std::size_t n_fields) {
  return sizeof kRecordMagic + 8 + 8 * n_fields + 4;
}

std::vector<double> result_values(const CellResult& result) {
  const detail::AggField* fields = detail::agg_fields();
  std::vector<double> values(detail::agg_field_count());
  for (std::size_t f = 0; f < values.size(); ++f) {
    values[f] = fields[f].get(result);
  }
  return values;
}

std::string serialize_record(std::uint64_t hash,
                             const std::vector<double>& values) {
  std::string buf(kRecordMagic, sizeof kRecordMagic);
  buf.reserve(record_size(values.size()));
  append_u64(&buf, hash);
  for (double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_u64(&buf, bits);
  }
  append_u32(&buf, detail::crc32(buf.data() + sizeof kRecordMagic,
                                 buf.size() - sizeof kRecordMagic));
  return buf;
}

/// Opens <dir>/cache.pack for appending — creating `dir` and the journal
/// first when absent — and checks its header.
int open_journal(const std::string& dir) {
  const std::string path = journal_path(dir);
  int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) journal_error(path, "cannot create directory: " + ec.message());
    std::string tmp;
    try {
      tmp = detail::write_temp(path, journal_header());
    } catch (const std::exception& e) {
      journal_error(path, e.what());
    }
    // link() never replaces: when racing first stores collide, exactly one
    // header lands and the losers see EEXIST. Their headers are the same
    // bytes, so every writer can go on to append.
    const int linked = ::link(tmp.c_str(), path.c_str());
    const int link_errno = errno;
    ::unlink(tmp.c_str());
    if (linked != 0 && link_errno != EEXIST) {
      journal_error(path,
                    std::string("cannot create: ") + std::strerror(link_errno));
    }
    fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  }
  if (fd < 0) {
    const int open_errno = errno;
    journal_error(path, std::string("cannot open for append: ") +
                            std::strerror(open_errno));
  }
  std::string head(journal_header().size(), '\0');
  const ssize_t got = ::pread(fd, head.data(), head.size(), 0);
  try {
    check_header(path, reinterpret_cast<const std::uint8_t*>(head.data()),
                 got < 0 ? 0 : static_cast<std::size_t>(got));
  } catch (...) {
    ::close(fd);
    throw;
  }
  return fd;
}

/// One write() under O_APPEND: concurrent shard processes interleave at
/// record granularity; a torn tail (crash mid-write) is caught by the
/// record CRC on the next load and skipped.
void write_record(int fd, const std::string& dir, const std::string& rec) {
  const ssize_t written = ::write(fd, rec.data(), rec.size());
  if (written != static_cast<ssize_t>(rec.size())) {
    const std::string why =
        written < 0 ? std::strerror(errno) : "short write";
    journal_error(journal_path(dir), "append failed: " + why);
  }
}

}  // namespace

PackedCacheIndex::PackedCacheIndex(const std::string& dir) : dir_(dir) {
  const std::string path = journal_path(dir);
  if (!std::filesystem::exists(path)) return;
  const util::MappedFile map(path);
  const std::uint8_t* base = map.data();
  const std::size_t size = map.size();
  check_header(path, base, size);
  present_ = true;

  // Records, last one wins per hash. A damaged stretch — a torn tail, an
  // interleaved write, a flipped byte — is skipped byte by byte until the
  // next record magic whose CRC holds, and counts once however many bytes
  // it costs.
  const std::size_t n_fields = detail::agg_field_count();
  const std::size_t rec = record_size(n_fields);
  const std::size_t payload_size = 8 + 8 * n_fields;
  std::size_t off = journal_header().size();
  bool in_garbage = false;
  while (off < size) {
    if (size - off < rec ||
        std::memcmp(base + off, kRecordMagic, sizeof kRecordMagic) != 0 ||
        load_u32(base + off + sizeof kRecordMagic + payload_size) !=
            detail::crc32(base + off + sizeof kRecordMagic, payload_size)) {
      if (!in_garbage) ++corrupt_records_;
      in_garbage = true;
      ++off;
      continue;
    }
    in_garbage = false;
    const std::uint8_t* payload = base + off + sizeof kRecordMagic;
    std::vector<double> values(n_fields);
    for (std::size_t f = 0; f < n_fields; ++f) {
      const std::uint64_t bits = load_u64(payload + 8 + 8 * f);
      std::memcpy(&values[f], &bits, sizeof(double));
    }
    index_[load_u64(payload)] = std::move(values);
    off += rec;
  }
}

PackedCacheIndex::~PackedCacheIndex() {
  if (fd_ >= 0) ::close(fd_);
}

bool PackedCacheIndex::load(std::uint64_t hash, CellResult* result) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(hash);
  if (it == index_.end()) return false;
  const detail::AggField* fields = detail::agg_fields();
  CellResult loaded;
  for (std::size_t f = 0; f < it->second.size(); ++f) {
    fields[f].set(loaded, it->second[f]);
  }
  loaded.cell = std::move(result->cell);
  *result = std::move(loaded);
  return true;
}

void PackedCacheIndex::append(std::uint64_t hash, const CellResult& result) {
  std::vector<double> values = result_values(result);
  const std::string rec = serialize_record(hash, values);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) fd_ = open_journal(dir_);
  write_record(fd_, dir_, rec);
  index_[hash] = std::move(values);
}

CacheLookup cache_lookup(const std::string& dir, std::uint64_t hash,
                         CellResult* result) {
  const PackedCacheIndex index(dir);
  if (index.load(hash, result)) return CacheLookup::kHit;
  return index.corrupt_records() > 0 ? CacheLookup::kCorrupt
                                     : CacheLookup::kMiss;
}

void cache_store(const std::string& dir, std::uint64_t hash,
                 const CellResult& result) {
  const std::string rec = serialize_record(hash, result_values(result));
  const int fd = open_journal(dir);
  try {
    write_record(fd, dir, rec);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

}  // namespace ants::scenario
