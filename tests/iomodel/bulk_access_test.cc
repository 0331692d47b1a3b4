// Differential property tests for the block-granular bulk cache API.
//
// Two invariants, checked on randomized traces across every cache model:
//  1. Bulk path == per-access reference: access_span / access_blocks must
//     produce exactly the same CacheStats and residency as issuing one
//     access() per touched block, on random spans, streaming scans, and
//     wrapping-ring (channel-shaped) patterns.
//  2. Flat LRU == textbook LRU: the intrusive-slab LruCache must behave
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
       std::make_unique<SharedLlcCache>(CacheConfig{capacity_words, kBlock}, nullptr,
                                        nullptr),
       std::make_unique<LruCache>(CacheConfig{capacity_words, kBlock})});
  return pairs;
}

void check_residency(const CachePair& pair, Addr max_addr, const std::string& where) {
  for (Addr a = 0; a < max_addr; a += kBlock) {
    ASSERT_EQ(pair.bulk->contains(a), pair.ref->contains(a)) << where << " addr " << a;
  }
}

TEST(BulkAccess, RandomSpansMatchPerAccessReference) {
  for (auto& pair : make_pairs(512)) {  // 64 blocks; heavy eviction pressure
    Rng rng(101);
    const Addr space = 4096;
    for (int step = 0; step < 3000; ++step) {
      const std::int64_t words = rng.uniform(0, 100);
      const Addr addr = rng.uniform(0, space - 1);
      const AccessMode mode = rng.bernoulli(0.3) ? AccessMode::kWrite : AccessMode::kRead;
      pair.bulk->access_span(addr, words, mode);
      reference_span(*pair.ref, addr, words, mode);
    }
    expect_stats_eq(pair.bulk->stats(), pair.ref->stats(), pair.name + " random spans");
    check_residency(pair, space + 128, pair.name + " random spans");
  }
}

TEST(BulkAccess, StreamingScanMatchesPerAccessReference) {
  for (auto& pair : make_pairs(256)) {
    Addr a = 3;  // deliberately unaligned
    for (int step = 0; step < 2000; ++step) {
      pair.bulk->access_span(a, 37, AccessMode::kWrite);
      reference_span(*pair.ref, a, 37, AccessMode::kWrite);
      a += 37;
    }
    pair.bulk->flush();
    pair.ref->flush();
    expect_stats_eq(pair.bulk->stats(), pair.ref->stats(), pair.name + " streaming");
  }
}

TEST(BulkAccess, WrappingRingMatchesPerAccessReference) {
  // Replay a channel-shaped pattern: pushes and pops against a ring whose
  // spans split in two at the wrap point, exactly as runtime::Channel
  // issues them.
  const std::int64_t ring_cap = 50;  // not block-aligned on purpose
  const Addr base = 13;
  for (auto& pair : make_pairs(256)) {
    Rng rng(202);
    std::int64_t head = 0, size = 0;
    auto ring_touch = [&](CacheSim& cache, bool bulk, std::int64_t offset,
                          std::int64_t count, AccessMode mode) {
      const std::int64_t run = std::min(count, ring_cap - offset);
      if (bulk) {
        if (run > 0) cache.access_span(base + offset, run, mode);
        if (count > run) cache.access_span(base, count - run, mode);
      } else {
        reference_span(cache, base + offset, run, mode);
        if (count > run) reference_span(cache, base, count - run, mode);
      }
    };
    for (int step = 0; step < 4000; ++step) {
      if (rng.bernoulli(0.5)) {
        const std::int64_t n = rng.uniform(0, ring_cap - size);
        ring_touch(*pair.bulk, true, (head + size) % ring_cap, n, AccessMode::kWrite);
        ring_touch(*pair.ref, false, (head + size) % ring_cap, n, AccessMode::kWrite);
        size += n;
      } else {
        const std::int64_t n = rng.uniform(0, size);
        ring_touch(*pair.bulk, true, head, n, AccessMode::kRead);
        ring_touch(*pair.ref, false, head, n, AccessMode::kRead);
        head = (head + n) % ring_cap;
        size -= n;
      }
    }
    expect_stats_eq(pair.bulk->stats(), pair.ref->stats(), pair.name + " ring");
    check_residency(pair, base + ring_cap + kBlock, pair.name + " ring");
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

// --- Contracts -----------------------------------------------------------

TEST(BulkAccessContracts, RejectsSignedOverflow) {
  LruCache cache(CacheConfig{256, kBlock});
  const Addr huge = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(cache.access_range(huge - 2, 10, AccessMode::kRead), ContractViolation);
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
  EXPECT_THROW(cache.access_range(0, -1, AccessMode::kRead), ContractViolation);
}

TEST(BulkAccessContracts, EmptyRangesAreNoOps) {
  LruCache cache(CacheConfig{256, kBlock});
  cache.access_span(40, 0, AccessMode::kRead);
  cache.access_blocks(5, 0, AccessMode::kRead);
  cache.access_range(40, 0, AccessMode::kRead);
  EXPECT_EQ(cache.stats().accesses, 0);
}

}  // namespace
}  // namespace ccs::iomodel
