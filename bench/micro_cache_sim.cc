// Microbenchmark: cache simulator throughput (google-benchmark).
//
// The experiment harness's wall-clock time is dominated by simulated memory
// accesses; these benches track simulated accesses/second for each cache
// variant so regressions in the hot path are caught.
//
// Two families:
//  * range regimes (BM_LruHot, BM_LruSequential, BM_*Range) drive the cache
//    through the block-granular bulk API exactly as the runtime engine does
//    (state scans, channel ring segments); items = simulated block accesses.
//  * scalar regimes (BM_*Scalar*, BM_LruRandom) issue one virtual access()
//    per word over a precomputed address stream, tracking the non-bulk path
//    without measuring the RNG.

#include <benchmark/benchmark.h>

#include <vector>

#include "iomodel/cache.h"
#include "iomodel/hierarchy.h"
#include "iomodel/opt_cache.h"
#include "util/rng.h"

namespace {

using namespace ccs::iomodel;

constexpr std::int64_t kSpanWords = 64;  // typical state-scan / ring-segment span

std::vector<Addr> random_addrs(std::uint64_t seed, std::int64_t hi_inclusive, int n) {
  ccs::Rng rng(seed);
  std::vector<Addr> addrs;
  addrs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) addrs.push_back(rng.uniform(0, hi_inclusive));
  return addrs;
}

// Resident regime through the bulk API: random 64-word spans inside half the
// cache, so every block access is a hit -- the common case when a scheduled
// component fits in cache. Items = simulated block accesses.
void BM_LruHot(benchmark::State& state) {
  LruCache cache(CacheConfig{64 * 1024, 8});
  const auto starts = random_addrs(2, 32 * 1024 - kSpanWords, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    cache.access_span(starts[i], kSpanWords, AccessMode::kRead);
    if (++i == starts.size()) i = 0;
  }
  state.SetItemsProcessed(cache.stats().accesses);
}
BENCHMARK(BM_LruHot);

// Streaming regime through the bulk API: a long sequential scan in 64-word
// chunks; every block is a cold miss with an eviction, like a working set
// far beyond M. Items = simulated block accesses.
void BM_LruSequential(benchmark::State& state) {
  LruCache cache(CacheConfig{64 * 1024, 8});
  Addr a = 0;
  for (auto _ : state) {
    cache.access_span(a, kSpanWords, AccessMode::kRead);
    a += kSpanWords;
    if (a >= (Addr{1} << 40)) a = 0;
  }
  state.SetItemsProcessed(cache.stats().accesses);
}
BENCHMARK(BM_LruSequential);

// The engine's firing shape: each firing pops one token from its input
// ring, rescans its module's fixed state region and pushes one token into
// its output ring. 16 modules with block-aligned states of 4..34 blocks and
// packed 20-word rings, all resident, fired round-robin -- what the
// simulate step of a planning sweep spends its time on. Items = simulated
// block accesses.
void BM_LruStateRescan(benchmark::State& state) {
  LruCache cache(CacheConfig{64 * 1024, 8});
  constexpr int kModules = 16;
  constexpr std::int64_t kRingWords = 20;
  std::vector<Addr> state_base;
  std::vector<std::int64_t> state_words;
  Addr cursor = 0;
  for (int m = 0; m < kModules; ++m) {
    state_base.push_back(cursor);
    state_words.push_back((4 + 2 * m) * 8);
    cursor += state_words.back();
  }
  const Addr rings = cursor;  // packed right after the states
  std::vector<std::int64_t> head(kModules + 1, 0);
  int m = 0;
  for (auto _ : state) {
    const auto ring = [&](int r) { return rings + r * kRingWords + head[r]; };
    cache.access_span(ring(m), 1, AccessMode::kRead);
    head[m] = (head[m] + 1) % kRingWords;
    cache.access_span(state_base[m], state_words[m], AccessMode::kRead);
    cache.access_span(ring(m + 1), 1, AccessMode::kWrite);
    if (++m == kModules) m = 0;
  }
  state.SetItemsProcessed(cache.stats().accesses);
}
BENCHMARK(BM_LruStateRescan);

// Scalar hit path: one virtual access() per word, precomputed addresses.
void BM_LruScalarHot(benchmark::State& state) {
  LruCache cache(CacheConfig{64 * 1024, 8});
  const auto addrs = random_addrs(2, 32 * 1024, 65536);
  std::size_t i = 0;
  for (auto _ : state) {
    cache.access(addrs[i], AccessMode::kRead);
    if (++i == addrs.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruScalarHot);

// Scalar mixed hit/miss path over a large address space.
void BM_LruRandom(benchmark::State& state) {
  LruCache cache(CacheConfig{64 * 1024, 8});
  const auto addrs = random_addrs(1, 1 << 22, 65536);
  std::size_t i = 0;
  for (auto _ : state) {
    cache.access(addrs[i], AccessMode::kRead);
    if (++i == addrs.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruRandom);

void BM_SetAssociativeRandom(benchmark::State& state) {
  SetAssociativeCache cache(CacheConfig{64 * 1024, 8}, 8);
  const auto addrs = random_addrs(3, 1 << 22, 65536);
  std::size_t i = 0;
  for (auto _ : state) {
    cache.access(addrs[i], AccessMode::kRead);
    if (++i == addrs.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssociativeRandom);

// Bulk resident regime on realistic geometry.
void BM_SetAssociativeRange(benchmark::State& state) {
  SetAssociativeCache cache(CacheConfig{64 * 1024, 8}, 8);
  const auto starts = random_addrs(5, 32 * 1024 - kSpanWords, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    cache.access_span(starts[i], kSpanWords, AccessMode::kRead);
    if (++i == starts.size()) i = 0;
  }
  state.SetItemsProcessed(cache.stats().accesses);
}
BENCHMARK(BM_SetAssociativeRange);

// Bulk resident regime through a two-level hierarchy (every span hits L1).
void BM_HierarchyRange(benchmark::State& state) {
  HierarchyCache cache({64 * 1024, 512 * 1024}, 8);
  const auto starts = random_addrs(6, 32 * 1024 - kSpanWords, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    cache.access_span(starts[i], kSpanWords, AccessMode::kRead);
    if (++i == starts.size()) i = 0;
  }
  state.SetItemsProcessed(cache.level_stats(0).accesses);
}
BENCHMARK(BM_HierarchyRange);

void BM_OptOffline(benchmark::State& state) {
  ccs::Rng rng(4);
  std::vector<BlockId> trace;
  trace.reserve(100000);
  for (int i = 0; i < 100000; ++i) trace.push_back(rng.uniform(0, 4096));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt_misses(trace, 512));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_OptOffline);

}  // namespace

BENCHMARK_MAIN();
