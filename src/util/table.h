// Aligned plain-text table printer: search_lab's result tables (TableSink)
// and its artifact catalog.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ants::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; the row must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return headers_.size(); }

  /// Space-aligned rendering with a rule under the header.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ants::util
