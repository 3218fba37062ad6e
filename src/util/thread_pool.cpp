#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ants::util {

unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned parallel_workers(std::size_t n, unsigned threads) {
  if (n <= 1) return 1;
  if (threads == 0) threads = default_thread_count();
  return static_cast<unsigned>(std::max<std::size_t>(
      std::min<std::size_t>(threads, n), 1));
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, unsigned)>& body,
                  unsigned threads) {
  // Trivial work runs inline before anything else is even computed: no
  // hardware_concurrency query, no thread spawn/join. Sweep schedulers call
  // this per cell, so the n <= 1 path must stay free.
  if (n == 0) return;
  if (n == 1) {
    body(0, 0);
    return;
  }
  if (threads == 0) threads = default_thread_count();
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, n));

  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }

  std::exception_ptr first_error;
  std::mutex error_mutex;
  // Dynamic chunking via a shared counter: trials have wildly uneven cost
  // (heavy-tailed search times), so static partitioning would leave threads
  // idle behind one unlucky chunk.
  std::atomic<std::size_t> next{0};
  // Cooperative cancellation: once any item throws, the run is failing and
  // the rethrow below is inevitable — workers checking this flag in the
  // claim loop stop promptly instead of draining every remaining item
  // first (a failing multi-hour sweep must not run to completion before
  // reporting the error). In-flight items still finish; only new claims
  // stop.
  std::atomic<bool> abort{false};

  const auto worker = [&](unsigned id) {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i, id);
      } catch (...) {
        abort.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  // The calling thread takes worker id 0; spawned workers take 1..threads-1.
  // When a thread cannot be created (the OS refuses it at a process or
  // memory limit, or the pool vector cannot grow), spawning stops and the
  // threads already running share the remaining items.
  for (unsigned t = 1; t < threads; ++t) {
    try {
      pool.emplace_back(worker, t);
    } catch (const std::exception&) {
      break;
    }
  }
  worker(0);
  for (auto& th : pool) th.join();

  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  unsigned threads) {
  parallel_for(
      n, [&body](std::size_t i, unsigned) { body(i); }, threads);
}

}  // namespace ants::util
