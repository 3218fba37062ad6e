#include "support/visitation.h"

#include <algorithm>
#include <stdexcept>

#include "support/visited_set.h"
#include "sim/engine.h"
#include "sim/segment.h"
#include "util/math.h"

namespace ants::sim {

std::vector<std::int64_t> dyadic_radii(int max_exponent) {
  std::vector<std::int64_t> radii;
  radii.reserve(static_cast<std::size_t>(max_exponent) + 1);
  for (int e = 0; e <= max_exponent; ++e) radii.push_back(util::pow2(e));
  return radii;
}

VisitationReport record_visitation(const Strategy& strategy, AgentContext ctx,
                                   rng::Rng& rng, Time horizon,
                                   const std::vector<std::int64_t>& radii) {
  if (radii.empty()) throw std::invalid_argument("visitation: empty radii");
  if (!std::is_sorted(radii.begin(), radii.end()) ||
      std::adjacent_find(radii.begin(), radii.end()) != radii.end()) {
    throw std::invalid_argument("visitation: radii must strictly increase");
  }
  if (horizon < 0) throw std::invalid_argument("visitation: horizon");

  VisitationReport report;
  report.distinct.assign(radii.size(), 0);

  const auto annulus_of = [&radii](std::int64_t d) -> std::ptrdiff_t {
    const auto it = std::lower_bound(radii.begin(), radii.end(), d);
    return it == radii.end() ? -1 : it - radii.begin();
  };

  const auto program = strategy.make_program(ctx);
  grid::VisitedSet visited;
  grid::Point pos = grid::kOrigin;
  Time clock = 0;
  int consecutive_stalls = 0;

  while (clock < horizon) {
    const Segment seg = realize(program->next(rng), pos, grid::kOrigin);
    const Time budget = horizon - clock;
    for_each_visit(seg, budget, [&](grid::Point p, Time) {
      if (!visited.insert(p)) return;
      ++report.total_distinct;
      const auto annulus = annulus_of(grid::l1_norm(p));
      if (annulus >= 0) ++report.distinct[static_cast<std::size_t>(annulus)];
    });
    clock += std::min(budget, duration(seg));
    pos = end_position(seg);

    // A program emitting only zero-duration segments (e.g. GoTo to the
    // current node forever) would never advance the clock; bail out after a
    // long run of them rather than spin.
    if (duration(seg) == 0) {
      if (++consecutive_stalls > 1000) break;
    } else {
      consecutive_stalls = 0;
    }
  }

  report.steps = clock;
  return report;
}

}  // namespace ants::sim
