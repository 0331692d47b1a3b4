// ShardedLruCache contracts: the differential gates behind the sharded LLC.
//
// The load-bearing property is ShardedVsFlat.*: a one-stripe sharded cache
// is bit-identical to a flat LruCache of the same geometry -- stats,
// residency, and replacement order -- so the default one-stripe shared LLC
// of WorkerPool/Cluster is exactly a global-LRU last-level cache. The rest pins the multi-stripe semantics:
// bulk == scalar order per stripe, stats() == sum of shard_stats(), stripe
// isolation (per-stripe LRU), and the constructor contracts.

#include "iomodel/sharded_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/contract.h"
#include "util/rng.h"

namespace ccs::iomodel {
namespace {

constexpr std::int64_t kBlock = 8;

void expect_stats_eq(const CacheStats& a, const CacheStats& b, const char* where) {
  EXPECT_EQ(a.accesses, b.accesses) << where;
  EXPECT_EQ(a.hits, b.hits) << where;
  EXPECT_EQ(a.misses, b.misses) << where;
  EXPECT_EQ(a.writebacks, b.writebacks) << where;
}

/// Random word-level trace: mixed reads/writes over `space` words, checked
/// step by step so the first divergence is localized.
void drive_random_words(CacheSim& a, CacheSim& b, std::uint64_t seed,
                        std::int64_t steps, std::int64_t space) {
  Rng rng(seed);
  for (std::int64_t i = 0; i < steps; ++i) {
    const Addr addr = rng.uniform(0, space - 1);
    const AccessMode mode = rng.bernoulli(0.3) ? AccessMode::kWrite : AccessMode::kRead;
    a.access(addr, mode);
    b.access(addr, mode);
    ASSERT_EQ(a.stats().hits, b.stats().hits) << "step " << i << " addr " << addr;
  }
  expect_stats_eq(a.stats(), b.stats(), "random words");
}

/// Random bulk spans through the CacheSim block API.
void drive_random_spans(CacheSim& a, CacheSim& b, std::uint64_t seed,
                        std::int64_t steps, BlockId block_space) {
  Rng rng(seed);
  for (std::int64_t i = 0; i < steps; ++i) {
    const BlockId first = rng.uniform(0, block_space - 1);
    const std::int64_t count = rng.uniform(0, 24);
    const AccessMode mode = rng.bernoulli(0.4) ? AccessMode::kWrite : AccessMode::kRead;
    a.access_blocks(first, count, mode);
    b.access_blocks(first, count, mode);
    ASSERT_EQ(a.stats().hits, b.stats().hits) << "span " << i << " first " << first;
  }
  expect_stats_eq(a.stats(), b.stats(), "random spans");
}

/// Residency must agree word-for-word over the touched address space.
void expect_same_residency(const CacheSim& a, const CacheSim& b, std::int64_t space) {
  for (Addr addr = 0; addr < space; addr += kBlock) {
    ASSERT_EQ(a.contains(addr), b.contains(addr)) << "addr " << addr;
  }
}

TEST(ShardedVsFlat, SingleShardMatchesLruOnRandomWordTrace) {
  ShardedLruCache sharded(CacheConfig{64 * kBlock, kBlock}, 1);
  LruCache flat(CacheConfig{64 * kBlock, kBlock});
  drive_random_words(sharded, flat, 9001, 4000, 4096);
  expect_same_residency(sharded, flat, 4096);
  EXPECT_EQ(sharded.resident_blocks(), flat.resident_blocks());
}

TEST(ShardedVsFlat, SingleShardMatchesLruThroughBulkSpans) {
  ShardedLruCache sharded(CacheConfig{48 * kBlock, kBlock}, 1);
  LruCache flat(CacheConfig{48 * kBlock, kBlock});
  drive_random_spans(sharded, flat, 9002, 1500, 300);
  expect_same_residency(sharded, flat, 300 * kBlock);
  EXPECT_EQ(sharded.resident_blocks(), flat.resident_blocks());
}

TEST(ShardedVsFlat, SingleShardMatchesLruThroughFlush) {
  ShardedLruCache sharded(CacheConfig{16 * kBlock, kBlock}, 1);
  LruCache flat(CacheConfig{16 * kBlock, kBlock});
  drive_random_words(sharded, flat, 9003, 500, 512);
  sharded.flush();
  flat.flush();
  expect_stats_eq(sharded.stats(), flat.stats(), "after flush");
  EXPECT_EQ(sharded.resident_blocks(), 0);
  drive_random_words(sharded, flat, 9004, 500, 512);  // warm again post-flush
}

TEST(ShardedLruCache, BulkMatchesScalarAcrossShardCounts) {
  for (std::int32_t shards : {1, 2, 4, 8}) {
    ShardedLruCache bulk(CacheConfig{64 * kBlock, kBlock}, shards);
    ShardedLruCache scalar(CacheConfig{64 * kBlock, kBlock}, shards);
    Rng rng(7000 + static_cast<std::uint64_t>(shards));
    for (std::int64_t i = 0; i < 800; ++i) {
      const BlockId first = rng.uniform(0, 255);
      const std::int64_t count = rng.uniform(0, 40);
      const AccessMode mode =
          rng.bernoulli(0.4) ? AccessMode::kWrite : AccessMode::kRead;
      bulk.access_blocks(first, count, mode);
      for (BlockId b = first; b < first + count; ++b) {
        scalar.access(b * kBlock, mode);
      }
      ASSERT_EQ(bulk.stats().hits, scalar.stats().hits)
          << "shards " << shards << " span " << i;
    }
    expect_stats_eq(bulk.stats(), scalar.stats(), "bulk vs scalar");
    EXPECT_EQ(bulk.resident_blocks(), scalar.resident_blocks()) << shards;
  }
}

TEST(ShardedLruCache, StatsAggregateSumsShardStats) {
  ShardedLruCache cache(CacheConfig{32 * kBlock, kBlock}, 4);
  Rng rng(7100);
  for (std::int64_t i = 0; i < 2000; ++i) {
    cache.access(rng.uniform(0, 2047), rng.bernoulli(0.3) ? AccessMode::kWrite
                                                          : AccessMode::kRead);
  }
  CacheStats sum;
  for (std::int32_t s = 0; s < cache.shard_count(); ++s) {
    const CacheStats& part = cache.shard_stats(s);
    sum.accesses += part.accesses;
    sum.hits += part.hits;
    sum.misses += part.misses;
    sum.writebacks += part.writebacks;
  }
  expect_stats_eq(cache.stats(), sum, "aggregate vs shard sum");
  EXPECT_EQ(cache.stats().accesses, 2000);
}

TEST(ShardedLruCache, ShardOfStripesConsecutiveBlocksByLowBits) {
  ShardedLruCache cache(CacheConfig{64 * kBlock, kBlock}, 8);
  for (BlockId b = 0; b < 64; ++b) {
    EXPECT_EQ(cache.shard_of(b), static_cast<std::int32_t>(b & 7));
  }
  // Every stripe sees exactly its own sub-sequence of a dense span.
  cache.access_blocks(0, 64, AccessMode::kRead);
  for (std::int32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(cache.shard_stats(s).accesses, 8) << "shard " << s;
    EXPECT_EQ(cache.shard_stats(s).misses, 8) << "shard " << s;
  }
}

TEST(ShardedLruCache, StripesEvictIndependently) {
  // 4 stripes x 4 blocks each. Hammer stripe 0 with 16 distinct blocks
  // (4x its stripe capacity): stripe 0 churns, the others keep their single
  // resident block untouched -- per-stripe LRU, not global LRU.
  ShardedLruCache cache(CacheConfig{16 * kBlock, kBlock}, 4);
  for (std::int32_t s = 1; s < 4; ++s) {
    cache.access_block(static_cast<BlockId>(s), AccessMode::kRead);
  }
  for (std::int64_t i = 0; i < 16; ++i) {
    cache.access_block(static_cast<BlockId>(4 * i), AccessMode::kRead);  // stripe 0
  }
  EXPECT_EQ(cache.shard_stats(0).misses, 16);  // all distinct, stripe churns
  for (std::int32_t s = 1; s < 4; ++s) {
    EXPECT_TRUE(cache.contains(static_cast<Addr>(s) * kBlock)) << "shard " << s;
    EXPECT_EQ(cache.shard_stats(s).accesses, 1) << "shard " << s;
  }
  // Stripe 0 holds its stripe-capacity share (4 blocks), not the whole cache.
  EXPECT_EQ(cache.resident_blocks(), 4 + 3);
}

TEST(ShardedLruCache, ConstructionContracts) {
  const CacheConfig cfg{16 * kBlock, kBlock};  // 16 blocks
  EXPECT_THROW(ShardedLruCache(cfg, 0), ContractViolation);
  EXPECT_THROW(ShardedLruCache(cfg, -4), ContractViolation);
  EXPECT_THROW(ShardedLruCache(cfg, 3), ContractViolation);   // not a power of two
  EXPECT_THROW(ShardedLruCache(cfg, 32), ContractViolation);  // 32 shards > 16 blocks
  EXPECT_NO_THROW(ShardedLruCache(cfg, 16));                  // one block per stripe
}

TEST(ShardedLruCache, FactoryMakesWorkingCache) {
  auto cache = make_sharded_lru(32 * kBlock, kBlock, 4);
  cache->access_blocks(0, 8, AccessMode::kRead);
  cache->access_blocks(0, 8, AccessMode::kRead);
  EXPECT_EQ(cache->stats().accesses, 16);
  EXPECT_EQ(cache->stats().hits, 8);
  EXPECT_EQ(cache->stats().misses, 8);
}

}  // namespace
}  // namespace ccs::iomodel
