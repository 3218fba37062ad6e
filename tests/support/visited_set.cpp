#include "support/visited_set.h"

#include <cassert>

namespace ants::grid {

namespace {

constexpr std::int64_t kPackLimit = std::int64_t{1} << 31;

}  // namespace

bool VisitedSet::insert(Point p) {
  assert(util::iabs(p.x) < kPackLimit && util::iabs(p.y) < kPackLimit);
  return set_.insert(pack(p)).second;
}

bool VisitedSet::contains(Point p) const {
  assert(util::iabs(p.x) < kPackLimit && util::iabs(p.y) < kPackLimit);
  return set_.count(pack(p)) != 0;
}

}  // namespace ants::grid
