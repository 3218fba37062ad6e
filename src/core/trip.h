// The paper's one move, written once (arXiv 1205.2170, Algorithms 1-3): go
// to a node drawn from a distribution, search around it for a budget, return
// to the source.
//
// A_k, A_uniform, harmonic and their variants differ only in where a trip
// goes, how it searches and how the phase counter moves between trips. Each
// of those strategies supplies that as a trip law, a small struct
//
//   struct Law {
//     using Program = sim::AgentProgram;  // or plane::PlaneAgentProgram
//     GoTo destination(rng::Rng&);        // the outbound leg's op
//     SpiralFor search(rng::Rng&);        // the search leg (or a walk)
//     void advance();                     // the phase counter, per trip
//   };
//
// and TripProgram<Law> owns the go -> search -> return switch. The program
// base names the op family through aliases, its `Op` variant, its `Return`
// and `Search` ops and its `Trip`, so this header depends on rng/ alone and
// serves the grid (sim/) and the plane (plane/) alike. Law calls are static:
// they inline into the program's two virtuals, next() for one op and
// next_trip() for a whole trip when the search is a spiral, and every random
// draw stays at the op where a hand-written program made it.
#pragma once

#include <type_traits>
#include <utility>

#include "rng/rng.h"

namespace ants::core {

template <class Law>
class TripProgram final : public Law::Program {
  using Program = typename Law::Program;

 public:
  explicit TripProgram(Law law) : law_(std::move(law)) {}

  typename Program::Op next(rng::Rng& rng) override {
    switch (leg_) {
      case Leg::kGoTo:
        leg_ = Leg::kSearch;
        return law_.destination(rng);
      case Leg::kSearch:
        leg_ = Leg::kReturn;
        return law_.search(rng);
      default:
        leg_ = Leg::kGoTo;
        law_.advance();
        return typename Program::Return{};
    }
  }

  /// The three calls next() makes for a trip, in the same order, when the
  /// program stands at a trip's start and the law searches with a spiral.
  bool next_trip(rng::Rng& rng, typename Program::Trip* trip) override {
    if constexpr (std::is_same_v<decltype(law_.search(rng)),
                                 typename Program::Search>) {
      if (leg_ != Leg::kGoTo) return false;
      trip->to = law_.destination(rng).target;
      trip->budget = law_.search(rng).duration;
      law_.advance();
      return true;
    } else {
      static_cast<void>(rng);
      static_cast<void>(trip);
      return false;
    }
  }

 private:
  enum class Leg { kGoTo, kSearch, kReturn };

  Law law_;
  Leg leg_ = Leg::kGoTo;
};

/// A_k's schedule (Algorithm 3): stage j = 1, 2, ...; phase i = 1..j.
struct KnownKPhases {
  int j = 1;
  int i = 1;

  void advance() noexcept {
    if (i < j) {
      ++i;
    } else {
      ++j;
      i = 1;
    }
  }
};

/// Algorithm 1's schedule: big-stage l = 0, 1, ...; stage i = 0..l; phase
/// j = 0..i, advanced innermost first.
struct UniformPhases {
  int l = 0;
  int i = 0;
  int j = 0;

  void advance() noexcept {
    if (j < i) {
      ++j;
      return;
    }
    j = 0;
    if (i < l) {
      ++i;
      return;
    }
    i = 0;
    ++l;
  }
};

}  // namespace ants::core
