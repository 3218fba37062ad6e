#include "sim/engine.h"

#include <stdexcept>

#include "util/sat.h"

namespace ants::sim {

Segment realize(const Op& op, grid::Point current, grid::Point source) {
  struct Visitor {
    grid::Point current;
    grid::Point source;

    Segment operator()(const GoTo& go) const {
      return WalkSegment(current, go.target);
    }
    Segment operator()(const SpiralFor& sp) const {
      return SpiralSegment{current, sp.duration};
    }
    Segment operator()(const ReturnToSource&) const {
      return WalkSegment(current, source);
    }
    Segment operator()(const FollowPath& fp) const {
      return PathSegment{current, fp.steps};
    }
  };
  return std::visit(Visitor{current, source}, op);
}

Time single_agent_hit_time(AgentProgram& program, rng::Rng& rng,
                           grid::Point treasure, grid::Point source,
                           Time bound, std::int64_t max_segments,
                           std::int64_t* segments_out) {
  grid::Point pos = source;
  Time clock = 0;
  std::int64_t segments = 0;

  if (pos == treasure) {
    if (segments_out) *segments_out = 0;
    return 0;
  }

  // Invariant: clock <= bound when a segment is realized, so any hit that
  // could still matter (<= bound) is inside a segment we do inspect.
  while (clock <= bound) {
    if (++segments > max_segments) {
      throw std::runtime_error(
          "engine: agent exceeded segment budget without terminating");
    }
    const Segment seg = realize(program.next(rng), pos, source);
    if (const auto hit = hit_offset(seg, treasure)) {
      const Time when = util::sat_add(clock, *hit);
      if (when <= bound) {
        if (segments_out) *segments_out = segments;
        return when;
      }
    }
    clock = util::sat_add(clock, duration(seg));
    pos = end_position(seg);
  }
  if (segments_out) *segments_out = segments;
  return kNeverTime;
}

}  // namespace ants::sim
