// Multi-level cache hierarchy simulation.
//
// The paper analyzes a two-level hierarchy (cache + memory); Savage's
// extension of Hong–Kung to deeper hierarchies [24] is cited as the natural
// generalization. HierarchyCache stacks fully-associative LRU levels:
// an access probes L1; on a miss it probes L2, and so on; the block is then
// installed in every level above the one that hit (inclusive hierarchy).
// Per-level stats expose where the partitioned scheduler's savings land —
// experiment E13 shows partitioning built for the L2 size removes L2/memory
// traffic while leaving L1 behaviour unchanged.
//
// HierarchyCache probes through LruCache::access_block — the non-virtual
// per-block fast path — one block at a time; it is the N-level reference.
// SharedLlcCache, the two-level worker cache, runs whole spans through its
// private level's batched bulk loop and forwards only the misses.
#pragma once

#include <memory>
#include <vector>

#include "iomodel/cache.h"
#include "iomodel/sharded_cache.h"

namespace ccs::iomodel {

/// Inclusive multi-level LRU hierarchy. Level 0 is the smallest/fastest.
class HierarchyCache final : public CacheSim {
 public:
  /// `level_words` are capacities from L1 upward, strictly increasing; all
  /// levels share one block size.
  HierarchyCache(std::vector<std::int64_t> level_words, std::int64_t block_words);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;
  bool contains(Addr addr) const override;

  /// CacheSim::stats() reports the *last* level (transfers from backing
  /// memory) so the hierarchy drops into any harness expecting a two-level
  /// model whose cost is block transfers from slow memory.
  const CacheStats& stats() const override { return levels_.back()->stats(); }
  const CacheConfig& config() const override { return levels_.back()->config(); }

  std::size_t depth() const noexcept { return levels_.size(); }

  /// Per-level counters; level 0 counts all word accesses, level i>0 only
  /// sees accesses that missed every level below.
  const CacheStats& level_stats(std::size_t level) const;

  /// Capacity of one level, in words.
  std::int64_t level_words(std::size_t level) const;

  /// One level's cache, read-only (per-level residency probes).
  const LruCache& level(std::size_t i) const;

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override;

 private:
  /// Probes levels downward until one hits; every probed level installs the
  /// block, giving an inclusive hierarchy.
  void probe_block(BlockId block, AccessMode mode) {
    for (auto& level : levels_) {
      if (level->access_block(block, mode)) return;
    }
  }

  std::vector<std::unique_ptr<LruCache>> levels_;
};

/// One core's view of a multicore cache hierarchy: a private LRU level in
/// front of an optional *shared* last-level cache owned by someone else
/// (runtime::WorkerPool). The private level behaves exactly like a
/// standalone LruCache of the same geometry -- stats(), config(),
/// contains(), and replacement state are the private level's, so per-worker
/// counters are independent of who else shares the LLC. A private miss
/// additionally probes-and-installs the shared LLC (inclusive, like
/// HierarchyCache). The LLC is an address-striped ShardedLruCache that
/// locks only the stripe owning the missed block, so that probe is the only
/// synchronization a pool of worker threads needs: private levels are
/// single-owner by construction.
///
/// A bulk span runs the private level's batched loop over the whole span,
/// collecting its misses, then forwards those misses to the LLC in the same
/// order. Private replacement never depends on the LLC and the LLC sees the
/// same ordered block sequence as a per-block walk, so this is bit-identical
/// to probing level by level per block whenever one worker probes at a time.
///
/// With a null LLC the class degenerates to a plain private LRU, so one
/// worker type covers the flat-cache and shared-LLC configurations.
class SharedLlcCache final : public CacheSim {
 public:
  /// `llc` (may be null for no LLC) must outlive this cache, share the
  /// private block size and be strictly larger than the private level.
  SharedLlcCache(const CacheConfig& private_config, ShardedLruCache* llc);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;  ///< Flushes the private level only; the LLC is shared.
  bool contains(Addr addr) const override { return l1_.contains(addr); }

  /// The private level's counters/geometry: a worker's own traffic.
  const CacheStats& stats() const override { return l1_.stats(); }
  const CacheConfig& config() const override { return l1_.config(); }

  bool has_llc() const noexcept { return llc_ != nullptr; }

  /// Resident blocks in the private level (for placement-affinity probes).
  LruCache& private_level() noexcept { return l1_; }
  const LruCache& private_level() const noexcept { return l1_; }

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override;

 private:
  LruCache l1_;
  ShardedLruCache* llc_;
  std::vector<BlockId> misses_;  ///< Bulk-span miss buffer, reused across calls.
};

}  // namespace ccs::iomodel
