#include "util/table.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace ants::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("table needs >= 1 column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c] << std::string(width[c] - cells[c].size(), ' ');
      os << (c + 1 == cells.size() ? "\n" : "  ");
    }
  };
  emit(headers_);
  std::size_t total = 0;
  for (const std::size_t w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) emit(row);
}

}  // namespace ants::util
