// Microbenchmark: streaming engine throughput (google-benchmark).
//
// Firings/second of the token+cache execution engine, the inner loop of
// every experiment. Regimes: resident (component fits, mostly hits),
// thrashing (state exceeds cache, mostly misses), attribution overhead, and
// a wide split-join (many short channels per firing, stressing the
// precomputed firing plans rather than the state scan).

#include <benchmark/benchmark.h>

#include "iomodel/cache.h"
#include "runtime/engine.h"
#include "schedule/naive.h"
#include "sdf/min_buffer.h"
#include "workloads/pipelines.h"
#include "workloads/streamit.h"

namespace {

using namespace ccs;

void run_engine(benchmark::State& state, const sdf::SdfGraph& g, std::int64_t cache_words) {
  const auto naive = schedule::naive_minimal_buffer_schedule(g);
  iomodel::LruCache cache(iomodel::CacheConfig{cache_words, 8});
  runtime::EngineOptions opts;
  opts.per_node_attribution = false;
  runtime::Engine engine(g, naive.buffer_caps, cache, opts);
  std::int64_t firings = 0;
  for (auto _ : state) {
    engine.run(naive.period);
    firings += naive.period.size();
  }
  state.SetItemsProcessed(firings);
}

void BM_EngineResident(benchmark::State& state) {
  run_engine(state, workloads::uniform_pipeline(16, 256), 64 * 1024);
}
BENCHMARK(BM_EngineResident);

void BM_EngineThrashing(benchmark::State& state) {
  run_engine(state, workloads::uniform_pipeline(16, 256), 1024);
}
BENCHMARK(BM_EngineThrashing);

// 32 parallel single-tap filters under a duplicating split: each joiner
// firing moves one token across each of 32 packed one-word channels, so the
// firing plan and channel bookkeeping dominate, not the state scan.
void BM_EngineWideSplitJoin(benchmark::State& state) {
  run_engine(state, workloads::channel_vocoder(32), 64 * 1024);
}
BENCHMARK(BM_EngineWideSplitJoin);

void BM_EngineWithAttribution(benchmark::State& state) {
  const auto g = workloads::uniform_pipeline(16, 256);
  const auto naive = schedule::naive_minimal_buffer_schedule(g);
  iomodel::LruCache cache(iomodel::CacheConfig{64 * 1024, 8});
  runtime::Engine engine(g, naive.buffer_caps, cache);  // attribution on
  std::int64_t firings = 0;
  for (auto _ : state) {
    engine.run(naive.period);
    firings += naive.period.size();
  }
  state.SetItemsProcessed(firings);
}
BENCHMARK(BM_EngineWithAttribution);

}  // namespace

BENCHMARK_MAIN();
