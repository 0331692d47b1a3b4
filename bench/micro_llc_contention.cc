// Microbenchmark: shared-LLC lock contention under real threads
// (google-benchmark).
//
// The regime the sharded LLC exists for: W worker threads whose private L1s
// are deliberately tiny (8 blocks) stream over disjoint per-worker block
// bands, so essentially every simulated access misses L1 and probes the
// shared LLC under its lock. The LLC is large enough to hold every band, so
// after the first pass the steady state is pure L1-miss -> LLC-hit traffic:
// the probe itself is cheap and the lock protocol dominates.
//
// BM_LlcContention sweeps workers x LLC stripe count:
//   * shards == 1  -- one global-LRU stripe behind one lock: every probe
//                     from every worker serializes on it;
//   * shards == 16 -- consecutive blocks rotate through the 16 stripes, so
//                     two workers collide on a stripe lock only ~1/16 of
//                     the time.
//
// items/s counts LLC probes (== L1 misses) completed per wall-clock second
// across all workers; the 16-vs-1 ratio per worker count is what striping
// buys. (BENCH_PR7.json recorded the earlier single-mutex flat LLC in the
// 1-lock rows.) Note the ratio is parallelism-bound: on a single-CPU host
// threads timeshare, real lock overlap is preemption-bounded, and both
// configurations pay one uncontended atomic per probe, so the gap only
// opens with physical cores.
//
// BM_LlcProbeSerial is the same loop without threads (one worker, driver
// thread): the uncontended per-probe floor for both stripe counts.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "iomodel/types.h"
#include "runtime/worker_pool.h"

namespace {

using namespace ccs;

constexpr std::int64_t kBlockWords = 8;
constexpr std::int64_t kL1Words = 8 * kBlockWords;  // 8 blocks: bands never fit
constexpr std::int64_t kBandBlocks = 256;           // per-worker disjoint band
constexpr std::int64_t kPasses = 8;                 // band sweeps per thread
constexpr std::int64_t kLlcWords = 64 * 1024;       // holds every band resident

/// One worker thread's share: sweep its private band kPasses times through
/// its worker cache. Every block access misses the 8-block L1 (the band is
/// 32x larger) and probes the LLC under its stripe's lock.
void hammer(runtime::WorkerPool& pool, std::int32_t w) {
  auto& cache = pool.worker_cache(w);
  const iomodel::BlockId base = static_cast<iomodel::BlockId>(w) * kBandBlocks;
  for (std::int64_t pass = 0; pass < kPasses; ++pass) {
    cache.access_blocks(base, kBandBlocks, iomodel::AccessMode::kRead);
  }
}

void BM_LlcContention(benchmark::State& state) {
  const auto workers = static_cast<std::int32_t>(state.range(0));
  const auto shards = static_cast<std::int32_t>(state.range(1));
  std::int64_t probes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    runtime::WorkerPool pool(
        runtime::WorkerPoolOptions{workers, {kL1Words, kBlockWords}, kLlcWords, shards});
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    state.ResumeTiming();
    for (std::int32_t w = 0; w < workers; ++w) {
      threads.emplace_back(hammer, std::ref(pool), w);
    }
    for (auto& t : threads) t.join();
    state.PauseTiming();
    probes += pool.llc_stats().accesses;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(probes);
  state.SetLabel("sharded-" + std::to_string(shards));
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["llc_shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_LlcContention)
    ->Args({1, 1})
    ->Args({1, 16})
    ->Args({2, 1})
    ->Args({2, 16})
    ->Args({4, 1})
    ->Args({4, 16})
    ->Args({8, 1})
    ->Args({8, 16})
    ->Args({16, 1})
    ->Args({16, 16})
    ->UseRealTime();

/// Uncontended floor: the same probe stream issued from the driver thread
/// against a one-worker pool, per stripe count. Any gap between the two
/// rows is stripe-routing cost, not contention.
void BM_LlcProbeSerial(benchmark::State& state) {
  const auto shards = static_cast<std::int32_t>(state.range(0));
  runtime::WorkerPool pool(
      runtime::WorkerPoolOptions{1, {kL1Words, kBlockWords}, kLlcWords, shards});
  auto& cache = pool.worker_cache(0);
  for (auto _ : state) {
    cache.access_blocks(0, kBandBlocks, iomodel::AccessMode::kRead);
  }
  state.SetItemsProcessed(state.iterations() * kBandBlocks);
  state.SetLabel("sharded-" + std::to_string(shards));
  state.counters["llc_shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_LlcProbeSerial)->Arg(1)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
