// Sharded worker runtime: N workers over a shared cache hierarchy.
//
// The paper's §7 multiprocessor remark is a statement about cache state: the
// optimal uniprocessor schedule trivially minimizes total misses, and
// multicore execution trades extra (re)loads for load balance. A WorkerPool
// is the memory-system half of that trade made concrete: each worker owns a
// private L1 (iomodel::SharedLlcCache), all workers optionally share one
// last-level cache, and anything executed "on" worker w -- a component batch
// of the parallel simulator, or a core::Stream session placed there by
// core::Cluster -- runs against w's private cache and therefore pays real
// reload misses when it migrates to another worker.
//
// Concurrency contract: a worker's private cache is single-owner (exactly
// one thread may drive worker w at a time); the shared LLC is an
// address-striped iomodel::ShardedLruCache probed only on private-level
// misses, under the owning stripe's lock, so misses on different stripes
// never contend. Private per-worker counters are deterministic for a fixed
// per-worker access stream regardless of how other workers interleave --
// and independent of the stripe count, since the shared level never feeds
// back into L1 replacement; the shared LLC's hit/miss split is
// deterministic only under a serialized (virtual-time) driver, while its
// access total always equals the summed private misses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "iomodel/cache.h"
#include "iomodel/hierarchy.h"
#include "iomodel/layout.h"

namespace ccs::runtime {

/// Pool geometry.
struct WorkerPoolOptions {
  std::int32_t workers = 1;           ///< Cores simulated.
  iomodel::CacheConfig l1{4096, 8};   ///< Per-worker private cache.

  /// Shared last-level cache capacity in words; 0 disables the shared level
  /// (workers then have independent flat caches, the §7/E14 model). Must be
  /// strictly larger than l1 when non-zero.
  std::int64_t llc_words = 0;

  /// Stripes of the shared LLC, each an LRU behind its own lock: a power of
  /// two >= 1 (anything else throws). 1 stripe is one global LRU; more
  /// stripes split the capacity evenly, trading global LRU for per-stripe
  /// LRU and less lock contention. Has no effect when llc_words == 0.
  std::int32_t llc_shards = 1;
};

/// N private worker caches over an optional shared LLC.
class WorkerPool {
 public:
  /// Throws MemoryError for a degenerate L1 geometry, ccs::Error for an
  /// invalid worker count or LLC size.
  explicit WorkerPool(WorkerPoolOptions options);

  std::int32_t size() const noexcept { return options_.workers; }
  const WorkerPoolOptions& options() const noexcept { return options_; }

  /// Worker w's private cache (what an engine placed on w executes against).
  iomodel::SharedLlcCache& worker_cache(std::int32_t w);
  const iomodel::SharedLlcCache& worker_cache(std::int32_t w) const;

  /// Worker w's private-level counters (w's own traffic).
  const iomodel::CacheStats& worker_stats(std::int32_t w) const {
    return worker_cache(w).stats();
  }

  bool has_llc() const noexcept { return llc_ != nullptr; }

  /// Stripes backing the shared LLC (0 = no LLC).
  std::int32_t llc_shards() const noexcept {
    return llc_ != nullptr ? llc_->shard_count() : 0;
  }

  /// Shared-LLC counters. Requires has_llc(). Every private-level miss of
  /// every worker is one LLC access, so under a serialized driver
  /// llc_stats().accesses == sum of worker_stats(w).misses. The reference
  /// is a per-call aggregate snapshot (re-call for fresh counters); call it
  /// from the controlling thread while quiescent.
  const iomodel::CacheStats& llc_stats() const;

  /// Blocks of [region.base, region.end()) resident in worker w's private
  /// cache -- the affinity signal placement policies rank workers by. Probes
  /// block-granularly (cost O(words/B)); mutates nothing.
  std::int64_t resident_blocks(std::int32_t w, const iomodel::Region& region) const;

  /// resident_blocks in words -- the occupancy signal adaptive placement
  /// budgets against l1_capacity_words().
  std::int64_t resident_words(std::int32_t w, const iomodel::Region& region) const;

  /// Per-worker private-cache capacity in words (every worker is identical):
  /// the oversubscription budget adaptive placement charges hot footprints
  /// against.
  std::int64_t l1_capacity_words() const noexcept {
    return options_.l1.capacity_words;
  }

 private:
  WorkerPoolOptions options_;
  std::unique_ptr<iomodel::ShardedLruCache> llc_;  ///< Null without an LLC.
  std::vector<std::unique_ptr<iomodel::SharedLlcCache>> workers_;
};

}  // namespace ccs::runtime
