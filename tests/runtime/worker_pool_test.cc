// runtime::WorkerPool -- private worker L1s over an optional shared LLC.
//
// The load-bearing properties: a worker's private cache behaves exactly
// like a standalone LRU of the same geometry (per-worker counters are
// independent of co-workers), the shared LLC sees exactly the private
// misses and turns repeat fetches by *other* workers into hits, and the
// residency probe counts what is actually resident.

#include "runtime/worker_pool.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "iomodel/cache.h"
#include "util/error.h"

namespace ccs::runtime {
namespace {

using iomodel::AccessMode;
using iomodel::CacheConfig;

WorkerPoolOptions small_pool(std::int32_t workers, std::int64_t llc_words) {
  WorkerPoolOptions opts;
  opts.workers = workers;
  opts.l1 = CacheConfig{256, 8};
  opts.llc_words = llc_words;
  return opts;
}

TEST(WorkerPool, PrivateLevelMatchesStandaloneLruExactly) {
  // Differential check: the same access stream through a pool worker and a
  // plain LruCache must produce identical counters and residency, LLC or
  // not (the shared level never feeds back into L1 behaviour).
  for (const std::int64_t llc : {std::int64_t{0}, std::int64_t{4096}}) {
    WorkerPool pool(small_pool(2, llc));
    iomodel::LruCache reference(CacheConfig{256, 8});
    auto drive = [](iomodel::CacheSim& cache) {
      for (int pass = 0; pass < 3; ++pass) {
        for (iomodel::Addr a = 0; a < 512; a += 3) {
          cache.access(a, a % 2 == 0 ? AccessMode::kRead : AccessMode::kWrite);
        }
        cache.access_span(128, 200, AccessMode::kRead);
      }
    };
    drive(pool.worker_cache(0));
    drive(reference);
    EXPECT_EQ(pool.worker_stats(0), reference.stats()) << "llc=" << llc;
    for (iomodel::Addr a = 0; a < 512; a += 8) {
      EXPECT_EQ(pool.worker_cache(0).contains(a), reference.contains(a)) << a;
    }
    // Worker 1 never ran: its counters stay zero regardless of worker 0.
    EXPECT_EQ(pool.worker_stats(1).accesses, 0) << "llc=" << llc;
  }
}

TEST(WorkerPool, SharedLlcTurnsCrossWorkerRefetchesIntoHits) {
  WorkerPool pool(small_pool(2, 4096));
  // Worker 0 faults a block in: one L1 miss, one LLC access (miss).
  pool.worker_cache(0).access(0, AccessMode::kRead);
  EXPECT_EQ(pool.worker_stats(0).misses, 1);
  EXPECT_EQ(pool.llc_stats().accesses, 1);
  EXPECT_EQ(pool.llc_stats().misses, 1);
  // Worker 1 touches the same block: a private miss, but an LLC *hit* --
  // the shared level is what co-located workers save through.
  pool.worker_cache(1).access(0, AccessMode::kRead);
  EXPECT_EQ(pool.worker_stats(1).misses, 1);
  EXPECT_EQ(pool.llc_stats().accesses, 2);
  EXPECT_EQ(pool.llc_stats().hits, 1);
  // A private hit never reaches the LLC.
  pool.worker_cache(1).access(1, AccessMode::kRead);
  EXPECT_EQ(pool.llc_stats().accesses, 2);
}

TEST(WorkerPool, LlcAccessesEqualSummedPrivateMisses) {
  WorkerPool pool(small_pool(3, 4096));
  for (std::int32_t w = 0; w < pool.size(); ++w) {
    for (iomodel::Addr a = 0; a < 1024; a += 5) {
      pool.worker_cache(w).access(a + 64 * w, AccessMode::kRead);
    }
  }
  std::int64_t private_misses = 0;
  for (std::int32_t w = 0; w < pool.size(); ++w) {
    private_misses += pool.worker_stats(w).misses;
  }
  EXPECT_EQ(pool.llc_stats().accesses, private_misses);
}

TEST(WorkerPool, ResidencyProbeCountsResidentBlocks) {
  WorkerPool pool(small_pool(2, 0));
  // 256-word L1, 8-word blocks = 32 block capacity. Touch blocks 0..15.
  pool.worker_cache(0).access_span(0, 128, AccessMode::kRead);
  const iomodel::Region span{0, 128};
  EXPECT_EQ(pool.resident_blocks(0, span), 16);
  EXPECT_EQ(pool.resident_blocks(1, span), 0);  // private means private
  EXPECT_EQ(pool.resident_blocks(0, iomodel::Region{0, 0}), 0);
  // Evict by thrashing a disjoint range larger than the cache.
  pool.worker_cache(0).access_span(4096, 512, AccessMode::kRead);
  EXPECT_EQ(pool.resident_blocks(0, span), 0);
}

TEST(WorkerPool, FlushDropsThePrivateLevelOnly) {
  WorkerPool pool(small_pool(2, 4096));
  pool.worker_cache(0).access(0, AccessMode::kWrite);
  pool.worker_cache(0).flush();
  EXPECT_FALSE(pool.worker_cache(0).contains(0));
  // The block is still in the shared level: refetching hits the LLC.
  pool.worker_cache(0).access(0, AccessMode::kRead);
  EXPECT_EQ(pool.llc_stats().hits, 1);
}

TEST(WorkerPool, ShardedLlcBehavesLikeFlatOnSerialTraffic) {
  // The cross-worker LLC contracts above (default one stripe), re-run on
  // four stripes: a serialized driver must see the same accesses == summed
  // private misses identity, and cross-worker refetches must hit.
  WorkerPoolOptions opts = small_pool(3, 4096);
  opts.llc_shards = 4;
  WorkerPool pool(opts);
  EXPECT_EQ(pool.llc_shards(), 4);
  pool.worker_cache(0).access(0, AccessMode::kRead);
  pool.worker_cache(1).access(0, AccessMode::kRead);
  EXPECT_EQ(pool.llc_stats().accesses, 2);
  EXPECT_EQ(pool.llc_stats().hits, 1);
  for (std::int32_t w = 0; w < pool.size(); ++w) {
    for (iomodel::Addr a = 0; a < 1024; a += 5) {
      pool.worker_cache(w).access(a + 64 * w, AccessMode::kRead);
    }
  }
  std::int64_t private_misses = 0;
  for (std::int32_t w = 0; w < pool.size(); ++w) {
    private_misses += pool.worker_stats(w).misses;
  }
  EXPECT_EQ(pool.llc_stats().accesses, private_misses);
}

/// One worker's share of the contention test: sweep a block band through
/// its private cache `passes` times. The tiny L1 (8 blocks) never holds the
/// band, so every block access probes the shared LLC under its lock.
void sweep_band(WorkerPool& pool, std::int32_t w, iomodel::BlockId base,
                std::int64_t blocks, std::int64_t passes) {
  for (std::int64_t p = 0; p < passes; ++p) {
    pool.worker_cache(w).access_blocks(base, blocks, AccessMode::kRead);
  }
}

TEST(WorkerPool, ConcurrentLlcStatsMatchVirtualTimeExactly) {
  // Real threads vs a serialized (virtual-time) run of the same per-worker
  // streams, for one and four LLC stripes and both band layouts. The LLC
  // is big enough that nothing is ever evicted, so the aggregate split is a
  // pure function of the streams, not the interleaving: misses == distinct
  // blocks touched, accesses == summed private misses (each worker's L1 is
  // private, so its miss count is deterministic). Aggregate LLC counters
  // and every per-worker counter must agree exactly.
  constexpr std::int32_t kWorkers = 4;
  constexpr std::int64_t kBand = 64;
  constexpr std::int64_t kPasses = 3;
  for (const std::int32_t shards : {1, 4}) {
    for (const bool overlap : {false, true}) {
      WorkerPoolOptions opts;
      opts.workers = kWorkers;
      opts.l1 = CacheConfig{64, 8};  // 8 blocks: a 64-block band never fits
      opts.llc_words = 64 * 1024;    // all bands stay resident: no evictions
      opts.llc_shards = shards;
      const auto base_of = [&](std::int32_t w) {
        return overlap ? iomodel::BlockId{0}
                       : static_cast<iomodel::BlockId>(w) * kBand;
      };

      WorkerPool threaded(opts);
      std::vector<std::thread> threads;
      threads.reserve(kWorkers);
      for (std::int32_t w = 0; w < kWorkers; ++w) {
        threads.emplace_back(sweep_band, std::ref(threaded), w, base_of(w),
                             kBand, kPasses);
      }
      for (auto& t : threads) t.join();

      WorkerPool serial(opts);
      for (std::int32_t w = 0; w < kWorkers; ++w) {
        sweep_band(serial, w, base_of(w), kBand, kPasses);
      }

      const std::string where = "shards=" + std::to_string(shards) +
                                (overlap ? " overlapping" : " disjoint");
      EXPECT_EQ(threaded.llc_stats(), serial.llc_stats()) << where;
      EXPECT_EQ(threaded.llc_stats().misses,
                overlap ? kBand : kWorkers * kBand)
          << where;  // one cold miss per distinct block, never re-evicted
      for (std::int32_t w = 0; w < kWorkers; ++w) {
        EXPECT_EQ(threaded.worker_stats(w), serial.worker_stats(w))
            << where << " worker " << w;
      }
    }
  }
}

TEST(WorkerPool, RejectsDegenerateShardGeometry) {
  WorkerPoolOptions opts = small_pool(2, 4096);
  opts.llc_shards = -1;
  EXPECT_THROW(WorkerPool{opts}, Error);
  opts.llc_shards = 0;  // the shared LLC always has at least one stripe
  EXPECT_THROW(WorkerPool{opts}, Error);
  opts.llc_shards = 3;  // not a power of two
  EXPECT_THROW(WorkerPool{opts}, Error);
  opts.llc_shards = 1024;  // 4096/8 = 512 blocks < 1024 shards
  EXPECT_THROW(WorkerPool{opts}, Error);
  opts.llc_shards = 512;  // exactly one block per stripe is fine
  EXPECT_NO_THROW(WorkerPool{opts});
  // Without an LLC the shard count is ignored (no shared level to stripe).
  WorkerPoolOptions no_llc = small_pool(2, 0);
  no_llc.llc_shards = 16;
  WorkerPool flat(no_llc);
  EXPECT_FALSE(flat.has_llc());
}

TEST(WorkerPool, RejectsDegenerateGeometry) {
  EXPECT_THROW(WorkerPool(small_pool(0, 0)), Error);
  EXPECT_THROW(WorkerPool(small_pool(2, 256)), Error);   // LLC not larger than L1
  EXPECT_THROW(WorkerPool(small_pool(2, 100)), Error);   // LLC smaller than L1
  WorkerPoolOptions bad = small_pool(2, 0);
  bad.l1 = CacheConfig{4, 8};  // smaller than one block
  EXPECT_THROW(WorkerPool{bad}, Error);
  WorkerPool ok(small_pool(1, 0));
  EXPECT_FALSE(ok.has_llc());
  EXPECT_THROW(ok.llc_stats(), ContractViolation);
  EXPECT_THROW(ok.worker_cache(1), ContractViolation);
}

}  // namespace
}  // namespace ccs::runtime
