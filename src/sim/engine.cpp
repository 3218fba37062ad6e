#include "sim/engine.h"

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

}  // namespace ants::sim
