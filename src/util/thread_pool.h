// Dynamic-chunk parallel_for used by the Monte-Carlo runner.
//
// Trials are embarrassingly parallel and individually cheap-to-medium; a
// work-stealing queue would be over-engineering. Each invocation spawns
// (threads-1) workers plus the calling thread; workers claim indices from a
// shared atomic counter (trial costs are heavy-tailed, so static chunks
// would idle threads behind one unlucky slice) and everything joins before
// return. Determinism: the mapping from trial index to RNG seed is fixed by
// the caller, so results are identical for any thread count.
#pragma once

#include <cstddef>
#include <functional>

namespace ants::util {

/// Runs body(i) for every i in [0, n), using up to `threads` OS threads
/// (0 = hardware concurrency). n <= 1 or an effective thread count of 1
/// runs inline and spawns nothing. If a thread cannot be created, the
/// threads already started run the remaining items. Exceptions thrown by
/// `body` propagate to the caller (the first one captured wins). A throw
/// cancels cooperatively: workers stop claiming new items, in-flight items
/// finish, and all threads are joined before the exception is rethrown — a
/// failing multi-hour sweep surfaces its error promptly instead of draining
/// the whole range.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  unsigned threads = 0);

/// As above, but the body also receives the index of the worker running it
/// (a dense id in [0, parallel_workers(n, threads))). The id identifies the
/// OS thread for the duration of the call — telemetry uses it to attribute
/// items to trace tracks without thread-local state. Inline execution
/// (n <= 1 or one effective thread) reports worker 0.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, unsigned)>& body,
                  unsigned threads = 0);

/// The number of workers a parallel_for(n, ..., threads) call asks for (it
/// runs fewer if the OS refuses threads); every worker id is below it — for
/// pre-sizing per-worker buffers.
unsigned parallel_workers(std::size_t n, unsigned threads = 0);

/// Hardware concurrency with a sane floor of 1.
unsigned default_thread_count();

}  // namespace ants::util
