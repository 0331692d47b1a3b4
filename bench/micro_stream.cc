// Microbenchmark: online session throughput (google-benchmark).
//
// Firings/second through core::Stream::step -- the policy-plan + engine-run
// loop behind the serving surface -- against the equivalent batch
// Engine::run replay of the materialized dynamic schedule. The batch path
// amortizes one validation over the whole period; the stream path re-plans
// every component execution from live state, so the gap between the two is
// the price of true online decision making. A serving regime measures the
// added cost of multiplexing two tenants over one shared cache (a 1-worker,
// no-LLC core::Cluster).

#include <benchmark/benchmark.h>

#include "core/cluster.h"
#include "core/stream.h"
#include "iomodel/cache.h"
#include "partition/pipeline_dp.h"
#include "runtime/engine.h"
#include "schedule/dynamic.h"
#include "workloads/pipelines.h"

namespace {

using namespace ccs;

constexpr std::int64_t kM = 1024;
constexpr std::int64_t kOutputs = 4096;

sdf::SdfGraph bench_pipeline() { return workloads::uniform_pipeline(16, 300); }

partition::Partition bench_partition(const sdf::SdfGraph& g) {
  return partition::pipeline_optimal_partition(g, 3 * kM).partition;
}

/// Batch side: replay the materialized dynamic schedule through Engine::run.
void BM_BatchDynamicReplay(benchmark::State& state) {
  const auto g = bench_pipeline();
  const auto p = bench_partition(g);
  const auto dyn = schedule::dynamic_pipeline_schedule(g, p, kM, kOutputs);
  iomodel::LruCache cache(iomodel::CacheConfig{4 * kM, 8});
  runtime::EngineOptions opts;
  opts.per_node_attribution = false;
  runtime::Engine engine(g, dyn.buffer_caps, cache, opts);
  std::int64_t firings = 0;
  for (auto _ : state) {
    engine.run(dyn.period);
    firings += dyn.period.size();
  }
  state.SetItemsProcessed(firings);
}
BENCHMARK(BM_BatchDynamicReplay);

/// Online side: the same work decided live through Stream::step.
void BM_StreamStepServe(benchmark::State& state) {
  const auto g = bench_pipeline();
  const auto p = bench_partition(g);
  std::int64_t firings = 0;
  for (auto _ : state) {
    state.PauseTiming();
    iomodel::LruCache cache(iomodel::CacheConfig{4 * kM, 8});
    core::StreamOptions opts;
    opts.engine.per_node_attribution = false;
    core::Stream stream(g, p, cache, kM, opts);
    state.ResumeTiming();
    stream.push(stream.policy().batch_credit(kOutputs));
    while (stream.outputs_produced() < kOutputs) {
      benchmark::DoNotOptimize(stream.step().component);
    }
    stream.drain();
    firings += stream.stats().firings;
  }
  state.SetItemsProcessed(firings);
}
BENCHMARK(BM_StreamStepServe);

/// Serving regime: two tenants multiplexed over one shared cache.
void BM_ServerTwoTenants(benchmark::State& state) {
  const auto g = bench_pipeline();
  const auto p = bench_partition(g);
  std::int64_t firings = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::ClusterOptions opts;
    opts.workers = 1;
    opts.l1 = iomodel::CacheConfig{4 * kM, 8};
    core::Cluster cluster(opts);
    core::StreamOptions sopts;
    sopts.engine.per_node_attribution = false;
    cluster.admit("a", g, p, sopts, kM);
    cluster.admit("b", g, p, sopts, kM);
    state.ResumeTiming();
    for (int round = 0; round < 8; ++round) {
      for (core::TenantId t = 0; t < cluster.tenant_count(); ++t) {
        cluster.push(t, kOutputs / 8);
      }
      cluster.run_until_idle();
    }
    cluster.drain_all();
    const auto report = cluster.report();
    firings += report.aggregate.firings;
  }
  state.SetItemsProcessed(firings);
}
BENCHMARK(BM_ServerTwoTenants);

}  // namespace

BENCHMARK_MAIN();
