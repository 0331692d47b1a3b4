// Differential property tests for the block-granular bulk cache API.
//
// Three invariants, checked on randomized traces across every cache model:
//  1. Bulk path == per-access reference: access_span / access_blocks must
//     produce exactly the same CacheStats and residency as issuing one
//     access() per touched block, on random spans, streaming scans, and
//     wrapping-ring (channel-shaped) patterns, and repeated rescans of
//     resident state regions (the engine's firing shape).
//  2. Two-level bulk == per-block hierarchy: a worker cache over a shared
//     LLC, driven in bulk, matches the reference level for level --
//     counters and residency of both the private level and the LLC.
//  3. Flat LRU == textbook LRU: the intrusive-slab LruCache must behave
//     bit-identically to a straightforward std::list + std::unordered_map
//     implementation on random word traces with eviction pressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "iomodel/cache.h"
#include "iomodel/hierarchy.h"
#include "iomodel/sharded_cache.h"
#include "iomodel/trace.h"
#include "util/contract.h"
#include "util/rng.h"

namespace ccs::iomodel {
namespace {

constexpr std::int64_t kBlock = 8;

/// Reference for the bulk API: one access() per block overlapping the span,
/// touching the first covered word of each block (what the runtime did
/// before the bulk API existed).
void reference_span(CacheSim& cache, Addr addr, std::int64_t words, AccessMode mode) {
  if (words <= 0) return;
  const std::int64_t block = cache.config().block_words;
  const Addr last = addr + words - 1;
  for (BlockId b = addr / block; b <= last / block; ++b) {
    cache.access(std::max(addr, b * block), mode);
  }
}

void expect_stats_eq(const CacheStats& a, const CacheStats& b, const std::string& where) {
  EXPECT_EQ(a.accesses, b.accesses) << where;
  EXPECT_EQ(a.hits, b.hits) << where;
  EXPECT_EQ(a.misses, b.misses) << where;
  EXPECT_EQ(a.writebacks, b.writebacks) << where;
}

struct CachePair {
  std::string name;
  std::unique_ptr<CacheSim> bulk;
  std::unique_ptr<CacheSim> ref;
};

std::vector<CachePair> make_pairs(std::int64_t capacity_words) {
  std::vector<CachePair> pairs;
  pairs.push_back({"lru", std::make_unique<LruCache>(CacheConfig{capacity_words, kBlock}),
                   std::make_unique<LruCache>(CacheConfig{capacity_words, kBlock})});
  pairs.push_back(
      {"set4", std::make_unique<SetAssociativeCache>(CacheConfig{capacity_words, kBlock}, 4),
       std::make_unique<SetAssociativeCache>(CacheConfig{capacity_words, kBlock}, 4)});
  pairs.push_back(
      {"hier",
       std::make_unique<HierarchyCache>(
           std::vector<std::int64_t>{capacity_words / 4, capacity_words}, kBlock),
       std::make_unique<HierarchyCache>(
           std::vector<std::int64_t>{capacity_words / 4, capacity_words}, kBlock)});
  // One-stripe sharded LRU against a plain flat LruCache reference: the
  // bit-identity contract (same stats, residency, and replacement order)
  // that lets the cluster determinism gates treat llc_shards=1 as a pure
  // code-path change. The bulk side additionally exercises the sharded
  // stripe-walk bulk loop against the flat per-access order.
  pairs.push_back(
      {"sharded1-vs-flat",
       std::make_unique<ShardedLruCache>(CacheConfig{capacity_words, kBlock}, 1),
       std::make_unique<LruCache>(CacheConfig{capacity_words, kBlock})});
  // Four stripes: bulk stripe-walk vs per-access scalar order on the same
  // geometry (per-stripe LRU differs from global LRU, so the reference must
  // be another sharded instance).
  pairs.push_back(
      {"sharded4",
       std::make_unique<ShardedLruCache>(CacheConfig{capacity_words, kBlock}, 4),
       std::make_unique<ShardedLruCache>(CacheConfig{capacity_words, kBlock}, 4)});
  // A worker cache with no LLC behind it forwards spans to its private
  // LruCache's bulk loop; it must match a scalar flat LruCache exactly.
  pairs.push_back(
      {"worker-no-llc-vs-flat",
       std::make_unique<SharedLlcCache>(CacheConfig{capacity_words, kBlock}, nullptr),
       std::make_unique<LruCache>(CacheConfig{capacity_words, kBlock})});
  return pairs;
}

void check_residency(const CachePair& pair, Addr max_addr, const std::string& where) {
  for (Addr a = 0; a < max_addr; a += kBlock) {
    ASSERT_EQ(pair.bulk->contains(a), pair.ref->contains(a)) << where << " addr " << a;
  }
}

// --- Trace drivers ---------------------------------------------------------
//
// Each drives `bulk` through access_span and `ref` through reference_span
// (one access() per block) on the same pattern, and returns one past the
// highest word it touched (the residency-check bound).

/// Random spans with heavy eviction pressure, 30% writes.
Addr random_spans(CacheSim& bulk, CacheSim& ref) {
  Rng rng(101);
  const Addr space = 4096;
  for (int step = 0; step < 3000; ++step) {
    const std::int64_t words = rng.uniform(0, 100);
    const Addr addr = rng.uniform(0, space - 1);
    const AccessMode mode = rng.bernoulli(0.3) ? AccessMode::kWrite : AccessMode::kRead;
    bulk.access_span(addr, words, mode);
    reference_span(ref, addr, words, mode);
  }
  return space + 128;
}

/// An unaligned write-only streaming scan.
Addr streaming_scan(CacheSim& bulk, CacheSim& ref) {
  Addr a = 3;  // deliberately unaligned
  for (int step = 0; step < 2000; ++step) {
    bulk.access_span(a, 37, AccessMode::kWrite);
    reference_span(ref, a, 37, AccessMode::kWrite);
    a += 37;
  }
  return a;
}

/// A channel-shaped pattern: pushes and pops against a ring whose spans
/// split in two at the wrap point, exactly as runtime::Channel issues them.
Addr wrapping_ring(CacheSim& bulk, CacheSim& ref) {
  const std::int64_t ring_cap = 50;  // not block-aligned on purpose
  const Addr base = 13;
  Rng rng(202);
  std::int64_t head = 0, size = 0;
  auto ring_touch = [&](std::int64_t offset, std::int64_t count, AccessMode mode) {
    const std::int64_t run = std::min(count, ring_cap - offset);
    if (run > 0) bulk.access_span(base + offset, run, mode);
    if (count > run) bulk.access_span(base, count - run, mode);
    reference_span(ref, base + offset, run, mode);
    if (count > run) reference_span(ref, base, count - run, mode);
  };
  for (int step = 0; step < 4000; ++step) {
    if (rng.bernoulli(0.5)) {
      const std::int64_t n = rng.uniform(0, ring_cap - size);
      ring_touch((head + size) % ring_cap, n, AccessMode::kWrite);
      size += n;
    } else {
      const std::int64_t n = rng.uniform(0, size);
      ring_touch(head, n, AccessMode::kRead);
      head = (head + n) % ring_cap;
      size -= n;
    }
  }
  return base + ring_cap + kBlock;
}

/// The engine's shape: fixed module-state regions rescanned over and over,
/// interleaved with channel traffic. Region lengths follow the cache's
/// capacity C (in blocks), so scans of 2, 3, C/2, C - 1, C and C + 1 blocks
/// all occur, aligned and unaligned. The trace runs in phases. A component
/// phase rescans a set of regions that fits in the cache round-robin, as a
/// scheduled component's firings do, so most of its scans find their
/// previous scan intact; a hostile phase scans regions at random, so almost
/// none do. Mixed in: 1-block and wrapping ring ops on a packed buffer whose
/// first block is the last block of a region, single-block touches inside a
/// region (scalar access() or a 1-word span), often followed at once by a
/// rescan of that region, prefix scans that share a region's first block
/// but not its length, write scans (so dirty bits set on a rescan surface
/// as later writebacks), fresh blocks that trim the least recently used
/// region from its bottom end, and (when `flush_halfway`) one flush()
/// halfway. An LruCache on the bulk side is audited every few dozen steps.
Addr scan_trace(CacheSim& bulk, CacheSim& ref, bool flush_halfway) {
  const std::int64_t cap = bulk.config().capacity_blocks();
  struct Region {
    Addr base;
    std::int64_t words;
    std::int64_t blocks;
  };
  std::vector<Region> regions;
  Addr cursor = 0;
  const auto add_region = [&](std::int64_t words, std::int64_t misalign) {
    cursor = (cursor + kBlock - 1) / kBlock * kBlock + misalign;
    regions.push_back(Region{cursor, words, (cursor + words - 1) / kBlock - cursor / kBlock + 1});
    cursor += words;
  };
  for (const std::int64_t blocks :
       {std::int64_t{2}, std::int64_t{3}, std::max<std::int64_t>(2, cap / 2),
        std::max<std::int64_t>(2, cap - 1), cap, cap + 1}) {
    add_region(blocks * kBlock, 0);      // aligned: exactly `blocks` blocks
    add_region(blocks * kBlock - 4, 3);  // unaligned: `blocks` blocks, split edges
  }
  // A region ending mid-block, then a packed ring starting right after it:
  // the ring's first block is the region's last block.
  add_region(2 * kBlock + 3, 0);
  const Addr ring_base = cursor;
  const std::int64_t ring_cap = 3 * kBlock - 3;
  cursor += ring_cap;
  const auto region_count = static_cast<std::int64_t>(regions.size());
  Addr fresh = (cursor / kBlock + 4) * kBlock;  // cold blocks beyond the layout

  auto span = [&](Addr addr, std::int64_t words, AccessMode mode) {
    bulk.access_span(addr, words, mode);
    reference_span(ref, addr, words, mode);
  };
  std::int64_t head = 0, size = 0;
  auto ring_touch = [&](std::int64_t offset, std::int64_t count, AccessMode mode) {
    const std::int64_t run = std::min(count, ring_cap - offset);
    if (run > 0) span(ring_base + offset, run, mode);
    if (count > run) span(ring_base, count - run, mode);
  };
  auto* audited = dynamic_cast<LruCache*>(&bulk);

  Rng rng(606 + static_cast<std::uint64_t>(cap));
  constexpr int kSteps = 8000;
  constexpr int kPhase = 250;
  std::vector<std::int64_t> component;  // region indices, round-robin
  std::size_t next = 0;
  bool hostile = false;
  for (int step = 0; step < kSteps; ++step) {
    if (step % kPhase == 0) {
      // One phase in four is hostile; the others pick regions at random
      // until the next one would no longer fit in the cache (the first one
      // always joins, so a component may also be a single oversized
      // region).
      hostile = rng.uniform(0, 3) == 0;
      component.clear();
      std::int64_t blocks = 0;
      for (int tries = 0; tries < 8; ++tries) {
        const std::int64_t r = rng.uniform(0, region_count - 1);
        if (!component.empty() && blocks + regions[static_cast<std::size_t>(r)].blocks > cap) {
          continue;
        }
        component.push_back(r);
        blocks += regions[static_cast<std::size_t>(r)].blocks;
      }
      next = 0;
    }
    const Region& r =
        hostile ? regions[static_cast<std::size_t>(rng.uniform(0, region_count - 1))]
                : regions[static_cast<std::size_t>(component[next++ % component.size()])];
    const std::int64_t op = rng.uniform(0, 99);
    if (op < 60) {
      // Rescan the whole region; a third of them write.
      span(r.base, r.words, rng.bernoulli(0.33) ? AccessMode::kWrite : AccessMode::kRead);
    } else if (op < 72) {
      // Ring push or pop of 1 to 2B tokens, split at the wrap point.
      if (rng.bernoulli(0.5)) {
        const std::int64_t n = std::min(rng.uniform(1, 2 * kBlock), ring_cap - size);
        ring_touch((head + size) % ring_cap, n, AccessMode::kWrite);
        size += n;
      } else {
        const std::int64_t n = std::min(rng.uniform(1, 2 * kBlock), size);
        ring_touch(head, n, AccessMode::kRead);
        head = (head + n) % ring_cap;
        size -= n;
      }
    } else if (op < 84) {
      // One block inside the region: scalar access() or a 1-word span,
      // then (mostly) a rescan that must not treat the region as intact.
      const Addr a = r.base + rng.uniform(0, r.words - 1);
      const AccessMode mode = rng.bernoulli(0.3) ? AccessMode::kWrite : AccessMode::kRead;
      if (rng.bernoulli(0.5)) {
        bulk.access(a, mode);
        ref.access(a, mode);
      } else {
        span(a, 1, mode);
      }
      if (rng.bernoulli(0.7)) span(r.base, r.words, AccessMode::kRead);
    } else if (op < 92) {
      // Same first block, different length: a prefix of the region, then
      // the whole region again.
      span(r.base, rng.uniform(1, r.words), AccessMode::kRead);
      if (rng.bernoulli(0.5)) span(r.base, r.words, AccessMode::kRead);
    } else {
      // Fresh blocks push the least recently used region out from its
      // bottom end, one or a few blocks at a time.
      const std::int64_t n = rng.uniform(1, 3);
      span(fresh, n * kBlock, rng.bernoulli(0.5) ? AccessMode::kWrite : AccessMode::kRead);
      fresh += n * kBlock;
    }
    if (flush_halfway && step == kSteps / 2) {
      bulk.flush();
      ref.flush();
    }
    if (audited != nullptr && step % 37 == 0) audited->audit_invariants();
  }
  if (audited != nullptr) audited->audit_invariants();
  return fresh + kBlock;
}

Addr repeated_scans(CacheSim& bulk, CacheSim& ref) { return scan_trace(bulk, ref, true); }

/// The same trace without the flush: a worker cache flushes only its
/// private level, a HierarchyCache every level, so the two-level references
/// agree only on flush-free traces.
Addr repeated_scans_no_flush(CacheSim& bulk, CacheSim& ref) {
  return scan_trace(bulk, ref, false);
}

TEST(BulkAccess, RandomSpansMatchPerAccessReference) {
  for (auto& pair : make_pairs(512)) {  // 64 blocks; heavy eviction pressure
    const Addr end = random_spans(*pair.bulk, *pair.ref);
    expect_stats_eq(pair.bulk->stats(), pair.ref->stats(), pair.name + " random spans");
    check_residency(pair, end, pair.name + " random spans");
  }
}

TEST(BulkAccess, StreamingScanMatchesPerAccessReference) {
  for (auto& pair : make_pairs(256)) {
    streaming_scan(*pair.bulk, *pair.ref);
    pair.bulk->flush();
    pair.ref->flush();
    expect_stats_eq(pair.bulk->stats(), pair.ref->stats(), pair.name + " streaming");
  }
}

TEST(BulkAccess, RepeatedScansMatchPerAccessReference) {
  for (auto& pair : make_pairs(512)) {
    const Addr end = repeated_scans(*pair.bulk, *pair.ref);
    expect_stats_eq(pair.bulk->stats(), pair.ref->stats(), pair.name + " repeated scans");
    check_residency(pair, end, pair.name + " repeated scans");
  }
}

TEST(BulkAccess, WrappingRingMatchesPerAccessReference) {
  for (auto& pair : make_pairs(256)) {
    const Addr end = wrapping_ring(*pair.bulk, *pair.ref);
    expect_stats_eq(pair.bulk->stats(), pair.ref->stats(), pair.name + " ring");
    check_residency(pair, end, pair.name + " ring");
  }
}

// --- Two-level bulk path ----------------------------------------------------
//
// A worker cache over a shared LLC, driven in bulk, against a reference
// driven one access() per block: private-level counters, LLC counters and
// both levels' residency must match exactly. The private level is 4 blocks
// and the LLC 32, so every trace misses into the LLC and the random one
// also evicts (dirty) blocks from it.

struct NamedTrace {
  const char* name;
  Addr (*run)(CacheSim& bulk, CacheSim& ref);
};
constexpr NamedTrace kTraces[] = {
    {"random spans", random_spans},
    {"streaming", streaming_scan},
    {"ring", wrapping_ring},
    {"repeated scans", repeated_scans_no_flush},
};
constexpr CacheConfig kWorkerL1{4 * kBlock, kBlock};
constexpr CacheConfig kSharedLlc{32 * kBlock, kBlock};

TEST(TwoLevelBulk, OneStripeMatchesHierarchyPerBlock) {
  for (const NamedTrace& trace : kTraces) {
    ShardedLruCache llc(kSharedLlc, 1);
    SharedLlcCache bulk(kWorkerL1, &llc);
    HierarchyCache ref({kWorkerL1.capacity_words, kSharedLlc.capacity_words}, kBlock);
    const Addr end = trace.run(bulk, ref);
    const std::string where = std::string("one stripe, ") + trace.name;
    expect_stats_eq(bulk.stats(), ref.level_stats(0), where + " private");
    expect_stats_eq(llc.stats(), ref.level_stats(1), where + " llc");
    EXPECT_GT(llc.stats().accesses, 0) << where;
    for (Addr a = 0; a < end; a += kBlock) {
      ASSERT_EQ(bulk.contains(a), ref.level(0).contains(a)) << where << " addr " << a;
      ASSERT_EQ(llc.contains(a), ref.level(1).contains(a)) << where << " addr " << a;
    }
  }
}

TEST(TwoLevelBulk, FourStripesMatchScalarAccess) {
  // Per-stripe LRU differs from global LRU, so the reference is a second
  // worker cache over its own 4-stripe LLC, driven by scalar access().
  for (const NamedTrace& trace : kTraces) {
    ShardedLruCache llc(kSharedLlc, 4);
    SharedLlcCache bulk(kWorkerL1, &llc);
    ShardedLruCache ref_llc(kSharedLlc, 4);
    SharedLlcCache ref(kWorkerL1, &ref_llc);
    const Addr end = trace.run(bulk, ref);
    const std::string where = std::string("four stripes, ") + trace.name;
    expect_stats_eq(bulk.stats(), ref.stats(), where + " private");
    expect_stats_eq(llc.stats(), ref_llc.stats(), where + " llc");
    for (std::int32_t s = 0; s < 4; ++s) {
      expect_stats_eq(llc.shard_stats(s), ref_llc.shard_stats(s),
                      where + " stripe " + std::to_string(s));
    }
    for (Addr a = 0; a < end; a += kBlock) {
      ASSERT_EQ(bulk.contains(a), ref.contains(a)) << where << " addr " << a;
      ASSERT_EQ(llc.contains(a), ref_llc.contains(a)) << where << " addr " << a;
    }
  }
}

TEST(BulkAccess, AccessBlocksMatchesBlockLoop) {
  LruCache bulk(CacheConfig{256, kBlock});
  LruCache ref(CacheConfig{256, kBlock});
  Rng rng(303);
  for (int step = 0; step < 2000; ++step) {
    const BlockId first = rng.uniform(0, 200);
    const std::int64_t count = rng.uniform(0, 12);
    const AccessMode mode = rng.bernoulli(0.5) ? AccessMode::kWrite : AccessMode::kRead;
    bulk.access_blocks(first, count, mode);
    for (BlockId b = first; b < first + count; ++b) ref.access(b * kBlock, mode);
  }
  expect_stats_eq(bulk.stats(), ref.stats(), "access_blocks");
  EXPECT_EQ(bulk.resident_blocks(), ref.resident_blocks());
}

TEST(BulkAccess, RecordingCacheRecordsOneAddressPerBlock) {
  LruCache inner(CacheConfig{256, kBlock});
  RecordingCache rec(inner);
  rec.access_span(3, 20, AccessMode::kRead);  // words 3..22: blocks 0,1,2
  EXPECT_EQ(rec.trace(), (std::vector<Addr>{0, 8, 16}));
  EXPECT_EQ(rec.stats().accesses, 3);
  EXPECT_EQ(rec.stats().misses, 3);
}

// --- Flat LRU vs textbook LRU -------------------------------------------

/// The pre-rewrite LruCache, kept as an executable specification.
class TextbookLru {
 public:
  explicit TextbookLru(std::int64_t capacity_blocks) : capacity_(capacity_blocks) {}

  void access(Addr addr, AccessMode mode) {
    ++stats_.accesses;
    const BlockId block = addr / kBlock;
    const auto it = map_.find(block);
    if (it != map_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      if (mode == AccessMode::kWrite) it->second->dirty = true;
      return;
    }
    ++stats_.misses;
    if (static_cast<std::int64_t>(lru_.size()) == capacity_) {
      if (lru_.back().dirty) ++stats_.writebacks;
      map_.erase(lru_.back().block);
      lru_.pop_back();
    }
    lru_.push_front(Line{block, mode == AccessMode::kWrite});
    map_[block] = lru_.begin();
  }

  void flush() {
    for (const Line& line : lru_) {
      if (line.dirty) ++stats_.writebacks;
    }
    lru_.clear();
    map_.clear();
  }

  bool contains(Addr addr) const { return map_.count(addr / kBlock) > 0; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    BlockId block;
    bool dirty;
  };
  std::int64_t capacity_;
  CacheStats stats_;
  std::list<Line> lru_;
  std::unordered_map<BlockId, std::list<Line>::iterator> map_;
};

TEST(FlatLru, MatchesTextbookLruOnRandomTraces) {
  for (const std::int64_t capacity_blocks : {1, 2, 7, 64}) {
    LruCache flat(CacheConfig{capacity_blocks * kBlock, kBlock});
    TextbookLru text(capacity_blocks);
    Rng rng(404 + static_cast<std::uint64_t>(capacity_blocks));
    for (int step = 0; step < 20000; ++step) {
      const Addr a = rng.uniform(0, 4 * capacity_blocks * kBlock);
      const AccessMode mode = rng.bernoulli(0.3) ? AccessMode::kWrite : AccessMode::kRead;
      flat.access(a, mode);
      text.access(a, mode);
      if (step % 4096 == 0) {
        flat.flush();
        text.flush();
      }
    }
    expect_stats_eq(flat.stats(), text.stats(),
                    "capacity " + std::to_string(capacity_blocks));
    for (Addr a = 0; a < 5 * capacity_blocks * kBlock; a += kBlock) {
      ASSERT_EQ(flat.contains(a), text.contains(a)) << "addr " << a;
    }
  }
}

TEST(FlatLru, MatchesTextbookThroughBulkSpans) {
  // Drive the flat cache only through the bulk API while the textbook
  // reference sees the equivalent per-block accesses.
  const std::int64_t capacity_blocks = 16;
  LruCache flat(CacheConfig{capacity_blocks * kBlock, kBlock});
  TextbookLru text(capacity_blocks);
  Rng rng(505);
  for (int step = 0; step < 5000; ++step) {
    const Addr addr = rng.uniform(0, 1024);
    const std::int64_t words = rng.uniform(1, 80);
    const AccessMode mode = rng.bernoulli(0.4) ? AccessMode::kWrite : AccessMode::kRead;
    flat.access_span(addr, words, mode);
    const Addr last = addr + words - 1;
    for (BlockId b = addr / kBlock; b <= last / kBlock; ++b) {
      text.access(std::max(addr, b * kBlock), mode);
    }
  }
  expect_stats_eq(flat.stats(), text.stats(), "bulk spans");
}

/// TextbookLru behind the CacheSim interface, so the trace drivers can use
/// it as their per-access reference.
class TextbookSim final : public CacheSim {
 public:
  explicit TextbookSim(const CacheConfig& config)
      : CacheSim(config.block_words), config_(config), lru_(config.capacity_blocks()) {}

  void access(Addr addr, AccessMode mode) override { lru_.access(addr, mode); }
  void flush() override { lru_.flush(); }
  bool contains(Addr addr) const override { return lru_.contains(addr); }
  const CacheStats& stats() const override { return lru_.stats(); }
  const CacheConfig& config() const override { return config_; }

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override {
    for (BlockId b = first, e = first + count; b != e; ++b) access(b * block_words(), mode);
  }

 private:
  CacheConfig config_;
  TextbookLru lru_;
};

TEST(FlatLru, RepeatedScansMatchReferencesAcrossCapacities) {
  // Rescans of resident regions at every capacity edge: 1 block (no span
  // can be a multi-block rescan), 2, 7 and 64, with regions of exactly
  // capacity and capacity + 1 blocks. The bulk LruCache must match both the
  // per-access LruCache and the textbook list, counters and residency.
  for (const std::int64_t capacity_blocks : {1, 2, 7, 64}) {
    const CacheConfig config{capacity_blocks * kBlock, kBlock};
    const std::string where = "capacity " + std::to_string(capacity_blocks);
    {
      LruCache bulk(config);
      LruCache ref(config);
      const Addr end = repeated_scans(bulk, ref);
      expect_stats_eq(bulk.stats(), ref.stats(), where + " vs per-access");
      for (Addr a = 0; a < end; a += kBlock) {
        ASSERT_EQ(bulk.contains(a), ref.contains(a)) << where << " addr " << a;
      }
    }
    {
      LruCache bulk(config);
      TextbookSim text(config);
      const Addr end = repeated_scans(bulk, text);
      expect_stats_eq(bulk.stats(), text.stats(), where + " vs textbook");
      EXPECT_GT(bulk.stats().writebacks, 0) << where;
      for (Addr a = 0; a < end; a += kBlock) {
        ASSERT_EQ(bulk.contains(a), text.contains(a)) << where << " addr " << a;
      }
    }
  }
}

// --- Contracts -----------------------------------------------------------

TEST(BulkAccessContracts, RejectsSignedOverflow) {
  LruCache cache(CacheConfig{256, kBlock});
  const Addr huge = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(cache.access_span(huge - 2, 10, AccessMode::kRead), ContractViolation);
  EXPECT_THROW(cache.access_blocks(huge - 2, 10, AccessMode::kRead), ContractViolation);
  // The last block of the range must still have an addressable first word.
  EXPECT_THROW(cache.access_blocks(huge / kBlock + 1, 1, AccessMode::kRead),
               ContractViolation);
}

TEST(BulkAccessContracts, RejectsNegativeArguments) {
  LruCache cache(CacheConfig{256, kBlock});
  EXPECT_THROW(cache.access_span(-1, 4, AccessMode::kRead), ContractViolation);
  EXPECT_THROW(cache.access_span(0, -4, AccessMode::kRead), ContractViolation);
  EXPECT_THROW(cache.access_blocks(-1, 4, AccessMode::kRead), ContractViolation);
  EXPECT_THROW(cache.access_blocks(0, -4, AccessMode::kRead), ContractViolation);
}

TEST(BulkAccessContracts, EmptyRangesAreNoOps) {
  LruCache cache(CacheConfig{256, kBlock});
  cache.access_span(40, 0, AccessMode::kRead);
  cache.access_blocks(5, 0, AccessMode::kRead);
  EXPECT_EQ(cache.stats().accesses, 0);
}

}  // namespace
}  // namespace ccs::iomodel
