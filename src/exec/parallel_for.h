// Deterministic sharded fan-out over an index range.
//
// parallel_for_shards splits [0, n) into `shards` contiguous ranges —
// boundaries are a pure function of (n, shards), never of the pool or of
// timing — and runs the body once per shard. With a multi-worker pool the
// shards execute concurrently; with a null pool they run serially in
// shard-index order. Either way the call returns only after every shard
// has finished, and the first exception (in shard order) rethrows on the
// caller.
//
// Byte-identity discipline (DESIGN.md §11, §15): bodies write only to
// shard-private state (slots indexed by shard id, or ranges disjoint by
// construction); callers merge those outputs in shard-index order after
// the join. Because the concatenation of shard ranges in shard order is
// exactly the serial iteration order, a merge that replays per-shard
// output in shard order reproduces the serial result bit-for-bit — for
// every shard count and every interleaving.
//
// Cooperative waiting: the join uses ThreadPool::wait, which executes
// pending pool tasks on the waiting thread. A fan-out issued from inside
// a sweep cell (itself a pool task) therefore helps drain the pool
// instead of deadlocking it, and never spawns threads of its own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "exec/thread_pool.h"

namespace rfh {

struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
};

/// Contiguous range owned by `shard` when [0, n) is split into `shards`
/// near-equal parts; the first n % shards parts are one element longer.
[[nodiscard]] constexpr IndexRange shard_range(std::size_t n, unsigned shards,
                                               unsigned shard) noexcept {
  const std::size_t k = shards == 0 ? 1 : shards;
  const std::size_t q = n / k;
  const std::size_t r = n % k;
  const std::size_t s = shard;
  const std::size_t begin = s * q + std::min<std::size_t>(s, r);
  return {begin, begin + q + (s < r ? 1 : 0)};
}

/// Shard count for fanning `n` items across `pool`: one shard per worker,
/// capped at `n` (null pool -> 1). Callers that need shard-count
/// *stability* across machines should pass an explicit count to
/// parallel_for_shards instead; the engine does not need to — its merge
/// is shard-count invariant.
[[nodiscard]] inline unsigned shard_count_for(const ThreadPool* pool,
                                              std::size_t n) noexcept {
  const unsigned workers = pool == nullptr ? 0 : pool->size();
  if (workers <= 1 || n == 0) return 1;
  return static_cast<unsigned>(std::min<std::size_t>(workers, n));
}

/// Run body(shard, range) for every shard of [0, n). Blocks until all
/// shards complete, even when one throws (the first shard's exception, in
/// shard order, is rethrown after the join — no task can outlive `body`).
template <typename Body>
void parallel_for_shards(ThreadPool* pool, std::size_t n, unsigned shards,
                         Body&& body) {
  if (n == 0) return;
  if (shards == 0) shards = 1;
  shards = static_cast<unsigned>(
      std::min<std::size_t>(shards, n));  // no empty shards
  if (pool == nullptr || shards == 1) {
    for (unsigned s = 0; s < shards; ++s) {
      body(s, shard_range(n, shards, s));
    }
    return;
  }
  std::vector<std::future<void>> pending;
  pending.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    const IndexRange range = shard_range(n, shards, s);
    pending.push_back(pool->submit([s, range, &body] { body(s, range); }));
  }
  std::exception_ptr first;
  for (std::future<void>& f : pending) {
    try {
      pool->wait(f);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace rfh
