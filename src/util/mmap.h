// Read-only memory-mapped files for the zero-copy artifact readers.
//
// The binary shard-artifact and cache-journal readers (scenario/artifact.h,
// scenario/cache_pack.h) want the whole file addressable without a
// read-and-copy pass: a merge or catalog over millions of cells should pay
// one mmap per artifact plus per-value loads, not a line parser. This is
// the thin RAII wrapper they share — map on construction, unmap on
// destruction, nothing else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ants::util {

/// A file mapped read-only into the address space for its lifetime.
/// Move-only; the moved-from object owns nothing. An empty file maps to a
/// valid object with size() == 0 and data() == nullptr (mmap of zero bytes
/// is undefined, so it is never attempted).
class MappedFile {
 public:
  /// Maps `path` read-only. Throws std::runtime_error (with the path and
  /// errno text) when the file cannot be opened, stat'ed, or mapped.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ants::util
