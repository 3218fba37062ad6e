// perf_probe — a fixed amount of single-threaded work that shares no code
// with the repository, timed by run.py at the start of every end-to-end
// round to measure how fast the host runs right now.
//
//   perf_probe
//
// The work is a walk-like integer loop: xorshift draws, a branch per step,
// a small table in L1. It never changes, so any change in its wall time is
// the host's.
#include <cstdint>

int main() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::int64_t pos[2] = {0, 0};
  std::uint64_t table[256] = {};
  std::uint64_t acc = 0;
  for (int step = 0; step < 10'000'000; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const unsigned dir = static_cast<unsigned>(x >> 62);
    pos[dir & 1] += (dir & 2) != 0 ? 1 : -1;
    if (((pos[0] ^ pos[1]) & 63) == 0) acc += table[x & 255];
    table[(x >> 8) & 255] += static_cast<std::uint64_t>(pos[0]);
  }
  // The checksum keeps the loop from being optimized away.
  return acc + static_cast<std::uint64_t>(pos[1]) == 42 ? 3 : 0;
}
