// Address-striped sharded LRU -- the shared last-level cache behind every
// runtime::WorkerPool with an LLC.
//
// One LRU behind one lock would serialize every private-level miss of every
// worker; model counters still scale, but wall-clock stops right where the
// paper's §7 multicore analysis begins. ShardedLruCache splits the flat-slab
// LruCache design into `shards` independent stripes -- block id -> stripe by
// low bits (`block & (shards-1)`, the way real LLC slices stripe physical
// addresses) -- each stripe owning its own slab, open-addressing table,
// recency list, statistics, and lock. Probes touch exactly one stripe, so
// workers missing on different stripes never contend, and the lock order is
// trivially deadlock-free (one lock held at a time, ever).
//
// Semantics and determinism:
//  * `shards == 1` (the WorkerPool default) is bit-identical to a plain
//    LruCache of the same geometry -- stats, residency, and replacement
//    order (the differential gates in tests/iomodel/bulk_access_test.cc and
//    sharded_cache_test.cc).
//  * `shards > 1` replaces global LRU with per-stripe LRU (capacity is
//    divided evenly across stripes), which is what hardware sliced LLCs do.
//    The stripe function is a pure function of the block id, so per-shard
//    counters -- and their sum -- are bit-identical across repeat runs under
//    a serialized (virtual-time) driver; under real threads the aggregate
//    access count still equals the summed private misses, and the hit/miss
//    split is interleaving-dependent (whichever worker's miss installs a
//    block first decides who later hits on it).
//  * The CacheSim bulk path walks each stripe's sub-sequence in ascending
//    block order under one lock acquisition per stripe; stripes are
//    independent, so this is bit-identical to the per-block scalar order.
//
// stats() aggregates the per-shard counters into a per-call snapshot. Unlike
// LruCache::stats(), the returned reference does NOT track later accesses
// live -- re-call stats() for fresh counters (WorkerPool::llc_stats() and
// the cluster reports do). Engines hold live stats references only to the
// private L1s they run against, never to the shared LLC, so nothing on the
// hot path depends on live tracking here; shard_stats() returns live
// references for callers that need them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "iomodel/cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ccs::iomodel {

/// Striped LRU: `shards` independent LruCache stripes with per-stripe locks.
class ShardedLruCache final : public CacheSim {
 public:
  /// `shards` must be a power of two, and the geometry must give every
  /// stripe at least one block (capacity_blocks >= shards).
  ShardedLruCache(const CacheConfig& config, std::int32_t shards);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;
  bool contains(Addr addr) const override;

  /// Per-call aggregate of the shard counters (see the file comment: the
  /// reference is refreshed by each stats() call, not live-tracking).
  const CacheStats& stats() const override;

  const CacheConfig& config() const override { return config_; }

  /// Touches one whole block under its stripe's lock; returns true on a
  /// hit. This is the thread-safe probe SharedLlcCache forwards private
  /// misses to, in order -- no pool-wide mutex required.
  bool access_block(BlockId block, AccessMode mode) {
    Shard& s = shard(shard_of(block));
    const MutexLock lock(s.mutex);
    return s.cache.access_block(block, mode);
  }

  std::int32_t shard_count() const noexcept { return shards_; }

  /// Stripe owning `block`: low bits, so consecutive blocks rotate stripes
  /// and a bulk span spreads across every lock.
  std::int32_t shard_of(BlockId block) const noexcept {
    return static_cast<std::int32_t>(block & shard_mask_);
  }

  /// Shard `s`'s live counters (its own stripe traffic). Returns a live
  /// reference without taking the stripe lock -- callers read it from the
  /// controlling thread at quiescent points (documented in the file
  /// comment), which the lock-based analysis cannot express.
  const CacheStats& shard_stats(std::int32_t s) const CCS_NO_THREAD_SAFETY_ANALYSIS;

  /// Blocks resident across all stripes (for tests).
  std::int64_t resident_blocks() const;

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override;

 private:
  struct Shard {
    explicit Shard(const CacheConfig& c) : cache(c) {}
    mutable ccs::Mutex mutex;
    LruCache cache CCS_GUARDED_BY(mutex);
  };

  Shard& shard(std::int32_t s) { return *shards_store_[static_cast<std::size_t>(s)]; }
  const Shard& shard(std::int32_t s) const {
    return *shards_store_[static_cast<std::size_t>(s)];
  }

  CacheConfig config_;
  std::int32_t shards_;
  std::int64_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_store_;
  mutable CacheStats agg_;  ///< stats() snapshot target.
};

/// Factory helper, mirroring make_lru.
std::unique_ptr<CacheSim> make_sharded_lru(std::int64_t capacity_words,
                                           std::int64_t block_words,
                                           std::int32_t shards);

}  // namespace ccs::iomodel
