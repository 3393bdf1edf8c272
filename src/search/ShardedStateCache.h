//===- search/ShardedStateCache.h - Concurrent visited-state set -*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The visited-state set of every search: a set of 64-bit state (or
/// work-item) digests sharded over independently locked open-addressing
/// tables so concurrent ICB workers' `Seen`/`ItemCache` probes do not
/// serialize on one mutex. Digests are already well mixed (SplitMix64
/// finalizer output), so the shard index is taken from the *high* bits and
/// the in-shard slot from the *low* bits — the two are independent.
///
/// Algorithm 1's optional caching keys on whole work items (state,
/// thread); plain DFS caches states. Membership is by 64-bit digest only
/// (hash compaction, as ZING does for large models); DESIGN.md discusses
/// why collisions are negligible at our state counts. Inserts are
/// linearizable per digest: for every digest exactly one insert() call
/// across all threads returns true.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SEARCH_SHARDEDSTATECACHE_H
#define ICB_SEARCH_SHARDEDSTATECACHE_H

#include "support/Hashing.h"
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace icb::search {

class ShardedStateCache {
public:
  /// Creates a cache with \p ShardCount shards (rounded up to a power of
  /// two; 0 picks the default of 64).
  explicit ShardedStateCache(unsigned ShardCount = 0);
  ~ShardedStateCache();

  ShardedStateCache(const ShardedStateCache &) = delete;
  ShardedStateCache &operator=(const ShardedStateCache &) = delete;

  /// Inserts a digest; returns true iff it was new. Thread-safe.
  bool insert(uint64_t Digest);

  /// Inserts a (state, thread) work-item digest; returns true if new.
  bool insertWorkItem(uint64_t StateDigest, uint32_t Tid) {
    return insert(hashCombine(StateDigest, Tid));
  }

  /// Thread-safe membership probe.
  bool contains(uint64_t Digest) const;

  /// Number of stored digests. Exact when no inserts are in flight (the
  /// engine reads it at bound barriers); a lower-bound hint while
  /// inserts race (good enough for the MaxStates limit check).
  uint64_t size() const;

  void clear();

  /// All stored digests in unspecified order (checkpoint serialization).
  /// Callers must quiesce concurrent inserts first (the driver snapshots
  /// only at bound barriers or after worker shutdown).
  std::vector<uint64_t> digests() const;

  unsigned shards() const { return ShardCount; }

private:
  struct Shard;

  Shard &shardFor(uint64_t Digest) const;

  std::unique_ptr<Shard[]> ShardArr;
  unsigned ShardCount = 1;
  unsigned ShardBits = 0;
};

} // namespace icb::search

#endif // ICB_SEARCH_SHARDEDSTATECACHE_H
