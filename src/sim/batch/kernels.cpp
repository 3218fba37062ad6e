#include "sim/batch/kernels.h"

#include <cmath>

#include "grid/point.h"

#if defined(__x86_64__) || defined(__i386__)
#define ANTS_BATCH_X86 1
#include <immintrin.h>
#endif

namespace ants::sim::batch {

namespace {

// --- scalar ----------------------------------------------------------------

std::size_t argmin_i64_scalar(const std::int64_t* v, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] < v[best]) best = i;
  }
  return best;
}

std::size_t argmin_f64_scalar(const double* v, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] < v[best]) best = i;
  }
  return best;
}

std::size_t find_point_scalar(const std::int64_t* xs, const std::int64_t* ys,
                              std::size_t n, std::int64_t x, std::int64_t y) {
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

std::size_t line_candidates_scalar(const double* tx, const double* ty,
                                   std::size_t n, double fx, double fy,
                                   double ux, double uy, double eps,
                                   std::uint32_t* out) {
  // Mirrors the head of plane::line_first_sighting operation for operation
  // (w = from - target; |w|^2 vs eps^2; disc = (w.u)^2 - (|w|^2 - eps^2)),
  // so the pass set is the exact set the scalar test would shortlist.
  const double e2 = eps * eps;
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double wx = fx - tx[i];
    const double wy = fy - ty[i];
    const double wn2 = wx * wx + wy * wy;
    const double b = wx * ux + wy * uy;
    const double disc = b * b - (wn2 - e2);
    if (wn2 <= e2 || disc >= 0.0) out[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

void window_gate_scalar(const double* appear, const double* vanish,
                        std::size_t n, double t, char* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (appear[i] <= t && t < vanish[i]) ? 1 : 0;
  }
}

std::size_t find_point_gated_scalar(const std::int64_t* xs,
                                    const std::int64_t* ys, const char* gate,
                                    std::size_t n, std::int64_t x,
                                    std::int64_t y) {
  for (std::size_t i = 0; i < n; ++i) {
    if (gate[i] != 0 && xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

void drift_positions_scalar(const std::int64_t* bx, const std::int64_t* by,
                            const double* vx, const double* vy, std::size_t n,
                            double t, std::int64_t* ox, std::int64_t* oy) {
  for (std::size_t i = 0; i < n; ++i) {
    ox[i] = bx[i] + std::llround(vx[i] * t);
    oy[i] = by[i] + std::llround(vy[i] * t);
  }
}

std::size_t dwell_advance_scalar(const std::int64_t* tx,
                                 const std::int64_t* ty, const char* alive,
                                 const char* found, std::size_t n,
                                 std::int64_t x, std::int64_t y,
                                 std::int64_t* held, std::int64_t need,
                                 std::uint32_t* out) {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t dx = tx[i] - x;
    const std::int64_t dy = ty[i] - y;
    const std::int64_t l1 = (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
    const bool in_disc = alive[i] != 0 && l1 <= 1;
    held[i] = in_disc ? held[i] + 1 : 0;
    if (found[i] == 0 && held[i] >= need) {
      out[m++] = static_cast<std::uint32_t>(i);
    }
  }
  return m;
}

void step_random_scalar(StepLanes& lanes, const std::uint32_t* idx,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = idx[i];
    const grid::Point d = grid::kDirections[lanes.rng.direction4(a)];
    lanes.x[a] += d.x;
    lanes.y[a] += d.y;
  }
}

/// Program word bit set once a biased-walk lane has moved.
constexpr std::uint64_t kHasLast = 4;

/// The first direction d whose weight exceeds what is left of u after
/// subtracting the weights before it (3 if none does): the sequential
/// roulette scan, evaluated without branches. The subtractions are the
/// scan's own, so every comparison sees the same doubles.
inline std::uint64_t roulette(const double* weight, double u) noexcept {
  const bool c0 = u < weight[0];
  u -= weight[0];
  const bool c1 = u < weight[1];
  u -= weight[1];
  const bool c2 = u < weight[2];
  const std::uint64_t past0 = c0 ? 0 : 1;
  const std::uint64_t past1 = c1 ? 0 : past0;
  const std::uint64_t past2 = c2 ? 0 : past1;
  return past0 + past1 + past2;
}

void step_biased_scalar(StepLanes& lanes, const std::uint32_t* idx,
                        std::size_t n, const BiasedWalkTable& table) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = idx[i];
    const std::uint64_t word = lanes.word[a];
    const std::int64_t x = lanes.x[a];
    const std::int64_t y = lanes.y[a];
    std::uint64_t dir;
    if ((word & kHasLast) != 0 &&
        lanes.rng.bernoulli(a, table.persist_threshold)) {
      dir = word & 3;
    } else {
      // Outward moves from (x, y): +x iff x >= 0, +y iff y >= 0, -x iff
      // x <= 0, -y iff y <= 0.
      const unsigned mask = (x >= 0 ? 1U : 0U) | (y >= 0 ? 2U : 0U) |
                            (x <= 0 ? 4U : 0U) | (y <= 0 ? 8U : 0U);
      dir = roulette(table.weight[mask],
                     lanes.rng.uniform_unit(a) * table.total[mask]);
    }
    lanes.word[a] = kHasLast | dir;
    lanes.x[a] = x + grid::kDirections[dir].x;
    lanes.y[a] = y + grid::kDirections[dir].y;
  }
}

#if defined(ANTS_BATCH_X86)

// --- AVX2 (compiled per-function via target attribute) ---------------------
//
// Vector bodies only for the entries the executor calls; the avx2 table
// points the other six at their scalar bodies.

__attribute__((target("avx2"))) std::size_t find_point_avx2(
    const std::int64_t* xs, const std::int64_t* ys, std::size_t n,
    std::int64_t x, std::int64_t y) {
  const __m256i px = _mm256_set1_epi64x(x);
  const __m256i py = _mm256_set1_epi64x(y);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ex = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i)), px);
    const __m256i ey = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ys + i)), py);
    const int mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_and_si256(ex, ey)));
    if (mask != 0) return i + static_cast<std::size_t>(__builtin_ctz(mask));
  }
  for (; i < n; ++i) {
    if (xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

__attribute__((target("avx2"))) std::size_t line_candidates_avx2(
    const double* tx, const double* ty, std::size_t n, double fx, double fy,
    double ux, double uy, double eps, std::uint32_t* out) {
  const double e2 = eps * eps;
  const __m256d vfx = _mm256_set1_pd(fx);
  const __m256d vfy = _mm256_set1_pd(fy);
  const __m256d vux = _mm256_set1_pd(ux);
  const __m256d vuy = _mm256_set1_pd(uy);
  const __m256d ve2 = _mm256_set1_pd(e2);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wx = _mm256_sub_pd(vfx, _mm256_loadu_pd(tx + i));
    const __m256d wy = _mm256_sub_pd(vfy, _mm256_loadu_pd(ty + i));
    const __m256d wn2 =
        _mm256_add_pd(_mm256_mul_pd(wx, wx), _mm256_mul_pd(wy, wy));
    const __m256d b =
        _mm256_add_pd(_mm256_mul_pd(wx, vux), _mm256_mul_pd(wy, vuy));
    const __m256d disc =
        _mm256_sub_pd(_mm256_mul_pd(b, b), _mm256_sub_pd(wn2, ve2));
    const __m256d pass = _mm256_or_pd(_mm256_cmp_pd(wn2, ve2, _CMP_LE_OQ),
                                      _mm256_cmp_pd(disc, zero, _CMP_GE_OQ));
    int mask = _mm256_movemask_pd(pass);
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      mask &= mask - 1;
      out[m++] = static_cast<std::uint32_t>(i + static_cast<std::size_t>(lane));
    }
  }
  for (; i < n; ++i) {
    const double wx = fx - tx[i];
    const double wy = fy - ty[i];
    const double wn2 = wx * wx + wy * wy;
    const double b = wx * ux + wy * uy;
    const double disc = b * b - (wn2 - e2);
    if (wn2 <= e2 || disc >= 0.0) out[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

template <int kBits>
__attribute__((target("avx2"))) inline __m256i rotl_x4(__m256i v) {
  return _mm256_or_si256(_mm256_slli_epi64(v, kBits),
                         _mm256_srli_epi64(v, 64 - kBits));
}

/// xoshiro256ss_next on 4 lanes. AVX2 has no 64-bit multiply, so x * 5 and
/// x * 9 are (x << 2) + x and (x << 3) + x, the same words mod 2^64.
__attribute__((target("avx2"))) inline __m256i next_x4(__m256i& s0,
                                                       __m256i& s1,
                                                       __m256i& s2,
                                                       __m256i& s3) {
  const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
  const __m256i r = rotl_x4<7>(x5);
  const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(r, 3), r);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = rotl_x4<45>(s3);
  return result;
}

/// Four consecutive lanes' state in registers: program word, position and
/// xoshiro256** state words.
struct LanesX4 {
  __m256i word, x, y, s0, s1, s2, s3;
};

/// The lane arrays of a StepLanes, read once per kernel call: vector
/// stores may alias anything, so going through the vectors' own pointers
/// would reload all seven after every store.
struct LaneArrays {
  explicit LaneArrays(StepLanes& lanes)
      : word(lanes.word.data()),
        x(lanes.x.data()),
        y(lanes.y.data()),
        s{lanes.rng.state(0), lanes.rng.state(1), lanes.rng.state(2),
          lanes.rng.state(3)} {}

  std::uint64_t* word;
  std::int64_t* x;
  std::int64_t* y;
  std::uint64_t* s[4];
};

__attribute__((target("avx2"))) inline __m256i load_x4(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void store_x4(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

__attribute__((target("avx2"))) inline LanesX4 load_lanes(
    const LaneArrays& l, std::uint32_t a) {
  return {load_x4(l.word + a), load_x4(l.x + a),    load_x4(l.y + a),
          load_x4(l.s[0] + a), load_x4(l.s[1] + a), load_x4(l.s[2] + a),
          load_x4(l.s[3] + a)};
}

__attribute__((target("avx2"))) inline void store_lanes(const LaneArrays& l,
                                                        std::uint32_t a,
                                                        const LanesX4& v) {
  store_x4(l.word + a, v.word);
  store_x4(l.x + a, v.x);
  store_x4(l.y + a, v.y);
  store_x4(l.s[0] + a, v.s0);
  store_x4(l.s[1] + a, v.s1);
  store_x4(l.s[2] + a, v.s2);
  store_x4(l.s[3] + a, v.s3);
}

/// Grid step (kDirections[d]) for directions d in {0,1,2,3}: even d moves
/// x by 1 - d, odd d moves y by 2 - d.
__attribute__((target("avx2"))) inline void move_x4(LanesX4& v, __m256i d) {
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i even =
      _mm256_cmpeq_epi64(_mm256_and_si256(d, one), _mm256_setzero_si256());
  v.x = _mm256_add_epi64(v.x, _mm256_and_si256(even, _mm256_sub_epi64(one, d)));
  v.y = _mm256_add_epi64(
      v.y,
      _mm256_andnot_si256(even, _mm256_sub_epi64(_mm256_set1_epi64x(2), d)));
}

/// Runs `step` (one tick of 4 consecutive lanes held in registers) over
/// every run of 4 consecutive listed lanes, and `scalar(lanes, n)` over the
/// listed lanes between such runs; lanes never interact, so the split
/// changes no draw. The scalar kernel is SSE code, so the upper halves of
/// the ymm registers are cleared before it runs: GCC emits no vzeroupper
/// before that call, and SSE instructions executed while they are dirty
/// each pay a merge, in the scalar kernel and in whatever runs after a tail
/// call to it (a log-heavy loop ran 30x slower after one such call).
template <typename StepX4, typename Scalar>
__attribute__((target("avx2"))) inline void for_lane_runs(
    StepLanes& lanes, const std::uint32_t* idx, std::size_t n,
    const StepX4& step, const Scalar& scalar) {
  const LaneArrays arrays(lanes);
  std::size_t done = 0;  // idx[done..i) wait for the scalar kernel
  std::size_t i = 0;
  while (i + 4 <= n) {
    const std::uint32_t a = idx[i];
    if (idx[i + 3] != a + 3) {
      ++i;
      continue;
    }
    if (done < i) {
      _mm256_zeroupper();
      scalar(idx + done, i - done);
    }
    LanesX4 v = load_lanes(arrays, a);
    step(v);
    store_lanes(arrays, a, v);
    i += 4;
    done = i;
  }
  _mm256_zeroupper();
  if (done < n) scalar(idx + done, n - done);
}

struct RandomStepX4 {
  __attribute__((target("avx2"))) void operator()(LanesX4& v) const {
    const __m256i bits = next_x4(v.s0, v.s1, v.s2, v.s3);
    move_x4(v, _mm256_srli_epi64(bits, 62));  // direction4_from_bits
  }
};

__attribute__((target("avx2"))) void step_random_avx2(StepLanes& lanes,
                                                      const std::uint32_t* idx,
                                                      std::size_t n) {
  for_lane_runs(lanes, idx, n, RandomStepX4{},
                [&](const std::uint32_t* rest, std::size_t m) {
                  step_random_scalar(lanes, rest, m);
                });
}

/// (bits >> 11) as a double on 4 lanes, exactly: AVX2 has no 64-bit int ->
/// double, so the 53-bit value m converts as its high and low 32-bit
/// halves, each through the exponent trick (2^84 + hi * 2^32 and 2^52 + lo
/// are exact doubles; subtracting the bias is exact), and the halves add
/// back to m without rounding because m < 2^53.
__attribute__((target("avx2"))) inline __m256d u53_x4(__m256i bits) {
  const __m256i m = _mm256_srli_epi64(bits, 11);
  const __m256i lo = _mm256_and_si256(m, _mm256_set1_epi64x(0xFFFFFFFFLL));
  const __m256i hi = _mm256_srli_epi64(m, 32);
  const __m256d dlo = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(lo, _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52));
  const __m256d dhi = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(hi, _mm256_set1_epi64x(0x4530000000000000LL))),
      _mm256_set1_pd(0x1.0p84));
  return _mm256_add_pd(dhi, dlo);
}

/// The inward weight on lanes where `inward_if` is negative, else the
/// outward one (blendv reads only each lane's sign bit).
__attribute__((target("avx2"))) inline __m256d weight_x4(__m256d outward,
                                                         __m256d inward,
                                                         __m256i inward_if) {
  return _mm256_blendv_pd(outward, inward, _mm256_castsi256_pd(inward_if));
}

struct BiasedStepX4 {
  __m256i threshold;
  // weight[mask][d] is the outward weight when bit d of mask is set: mask
  // 15 has every bit set, mask 0 none.
  __m256d outward, inward;

  __attribute__((target("avx2"))) void operator()(LanesX4& v) const {
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i has_last_bit = _mm256_set1_epi64x(kHasLast);
    // First draw: the persistence test for lanes that have moved, the
    // roulette draw for the rest. Both sides of the signed compare are
    // below 2^53, so it is the unsigned test bernoulli_from_bits makes.
    const __m256i first = next_x4(v.s0, v.s1, v.s2, v.s3);
    const __m256i has_last = _mm256_cmpeq_epi64(
        _mm256_and_si256(v.word, has_last_bit), has_last_bit);
    const __m256i persist = _mm256_and_si256(
        has_last,
        _mm256_cmpgt_epi64(threshold, _mm256_srli_epi64(first, 11)));
    // Second draw, kept only by lanes that moved before and did not
    // persist: the scalar kernel's short-circuit draws it for them alone.
    // Both draws convert before the choice, which keeps the persistence
    // test off the roulette's dependency chain.
    const __m256i second_draw = _mm256_andnot_si256(persist, has_last);
    __m256i t0 = v.s0, t1 = v.s1, t2 = v.s2, t3 = v.s3;
    const __m256i second = next_x4(t0, t1, t2, t3);
    v.s0 = _mm256_blendv_epi8(v.s0, t0, second_draw);
    v.s1 = _mm256_blendv_epi8(v.s1, t1, second_draw);
    v.s2 = _mm256_blendv_epi8(v.s2, t2, second_draw);
    v.s3 = _mm256_blendv_epi8(v.s3, t3, second_draw);
    const __m256d m = _mm256_blendv_pd(u53_x4(first), u53_x4(second),
                                       _mm256_castsi256_pd(second_draw));
    // Per-direction weights from the outward mask: +x iff x >= 0, +y iff
    // y >= 0, -x iff x <= 0, -y iff y <= 0, so +x is inward iff x < 0 and
    // -x iff -x < 0 (positions stay far from INT64_MIN); the total sums
    // them in direction order, as the table does.
    const __m256d w0 = weight_x4(outward, inward, v.x);
    const __m256d w1 = weight_x4(outward, inward, v.y);
    const __m256d w2 = weight_x4(outward, inward, _mm256_sub_epi64(zero, v.x));
    const __m256d w3 = weight_x4(outward, inward, _mm256_sub_epi64(zero, v.y));
    const __m256d total =
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(w0, w1), w2), w3);
    // unit_from_bits(bits) * total is m * 2^-53 * total: scaling by a power
    // of two is exact either way round, so m * (total * 2^-53) rounds to
    // the same double with one multiply on the draw's path.
    __m256d u =
        _mm256_mul_pd(m, _mm256_mul_pd(total, _mm256_set1_pd(0x1.0p-53)));
    // roulette() on 4 lanes.
    const __m256i c0 = _mm256_castpd_si256(_mm256_cmp_pd(u, w0, _CMP_LT_OQ));
    u = _mm256_sub_pd(u, w0);
    const __m256i c1 = _mm256_castpd_si256(_mm256_cmp_pd(u, w1, _CMP_LT_OQ));
    u = _mm256_sub_pd(u, w1);
    const __m256i c2 = _mm256_castpd_si256(_mm256_cmp_pd(u, w2, _CMP_LT_OQ));
    const __m256i past0 = _mm256_andnot_si256(c0, one);
    const __m256i past1 = _mm256_andnot_si256(c1, past0);
    const __m256i past2 = _mm256_andnot_si256(c2, past1);
    const __m256i drawn =
        _mm256_add_epi64(_mm256_add_epi64(past0, past1), past2);
    const __m256i dir = _mm256_blendv_epi8(
        drawn, _mm256_and_si256(v.word, _mm256_set1_epi64x(3)), persist);
    v.word = _mm256_or_si256(dir, has_last_bit);
    move_x4(v, dir);
  }
};

__attribute__((target("avx2"))) void step_biased_avx2(
    StepLanes& lanes, const std::uint32_t* idx, std::size_t n,
    const BiasedWalkTable& table) {
  const BiasedStepX4 step{
      _mm256_set1_epi64x(static_cast<std::int64_t>(table.persist_threshold)),
      _mm256_set1_pd(table.weight[15][0]), _mm256_set1_pd(table.weight[0][0])};
  for_lane_runs(lanes, idx, n, step,
                [&](const std::uint32_t* rest, std::size_t m) {
                  step_biased_scalar(lanes, rest, m, table);
                });
}

#endif  // ANTS_BATCH_X86

}  // namespace

const Kernels& kernels_for(SimdLevel level) noexcept {
  static const Kernels scalar{SimdLevel::kScalar,     argmin_i64_scalar,
                              argmin_f64_scalar,      find_point_scalar,
                              line_candidates_scalar, window_gate_scalar,
                              find_point_gated_scalar, drift_positions_scalar,
                              dwell_advance_scalar,   step_random_scalar,
                              step_biased_scalar};
#if defined(ANTS_BATCH_X86)
  static const Kernels avx2{SimdLevel::kAvx2,        argmin_i64_scalar,
                            argmin_f64_scalar,       find_point_avx2,
                            line_candidates_avx2,    window_gate_scalar,
                            find_point_gated_scalar, drift_positions_scalar,
                            dwell_advance_scalar,    step_random_avx2,
                            step_biased_avx2};
  return level == SimdLevel::kAvx2 ? avx2 : scalar;
#else
  (void)level;
  return scalar;
#endif
}

}  // namespace ants::sim::batch
