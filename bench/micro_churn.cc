// Microbenchmark: session churn at serving scale (google-benchmark).
//
// The lifecycle subsystem's headline claim: resident sessions stay bounded
// by the budget, not by the number ever admitted. BM_ChurnFlatMemory drives
// a sliding window of open sessions through 100k and 1,000,000 logical
// sessions on a 1-worker, no-LLC core::Cluster with a few-hundred live
// budget ("bounded-live" admission + the swap tier, band_words = 2^20 so
// the 2^40 address space holds ~1M session bands) and records, per run:
//
//   * peak_live            -- max resident sessions at any instant;
//   * peak_resident_kwords -- max resident layout footprint (state + rings,
//                             in thousands of simulated words);
//   * swap_outs / swap_ins -- eviction traffic the window forced;
//   * sessions_opened      -- the logical-session scale (the x-axis).
//
// FLAT means peak_live and peak_resident_kwords are identical at 100k and
// at 1M sessions -- scale shows up only in sessions_opened and wall time.
// The bit-identity of swapped sessions is gated in tests (lifecycle_test,
// swap_roundtrip_test); this file records the memory-bound story and the
// raw churn rate (sessions opened+closed per second of wall clock).
//
// BM_ChurnTraceGen measures the workloads::churn_trace generator alone at
// the same scales -- the experiment driver's per-cell setup cost.

#include <benchmark/benchmark.h>

#include <deque>
#include <string>

#include "core/cluster.h"
#include "partition/pipeline_dp.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"

namespace {

using namespace ccs;

constexpr std::int64_t kLiveBudget = 256;   ///< Resident-session cap.
constexpr std::int64_t kWindow = 384;       ///< Open (resident + swapped) cap.
constexpr std::int64_t kItemsPerBurst = 32;

/// A sliding window of open sessions over `sessions` logical lifetimes:
/// every admission beyond the resident budget evicts the coldest idle
/// session to the swap tier, every 16th burst goes to the oldest open
/// session (rehydrating it), and the window's tail closes forever.
void BM_ChurnFlatMemory(benchmark::State& state) {
  const std::int64_t sessions = state.range(0);
  const auto g = workloads::uniform_pipeline(4, 48);
  core::ClusterOptions opts;
  opts.workers = 1;
  opts.l1 = {2048, 8};
  opts.admission = "bounded-live";
  opts.budget.max_live_sessions = kLiveBudget;
  opts.swap = true;
  opts.band_words = std::int64_t{1} << 20;  // ~1M co-open session bands
  const auto p =
      partition::pipeline_optimal_partition(g, 3 * opts.l1.capacity_words)
          .partition;

  session::LifecycleCounters last;
  for (auto _ : state) {
    core::Cluster cluster(opts);
    core::StreamOptions sopts;
    sopts.engine.per_node_attribution = false;
    std::deque<core::TenantId> open;
    for (std::int64_t s = 0; s < sessions; ++s) {
      const core::TenantId id =
          cluster.admit("s" + std::to_string(s), g, p, sopts);
      open.push_back(id);
      cluster.push(id, kItemsPerBurst);
      cluster.run_until_idle();
      if (s % 16 == 15) {
        // Revisit the window's coldest session: almost certainly swapped by
        // now, so this burst pays one rehydration.
        cluster.push(open.front(), kItemsPerBurst);
        cluster.run_until_idle();
      }
      if (static_cast<std::int64_t>(open.size()) > kWindow) {
        cluster.close(open.front());
        open.pop_front();
      }
    }
    cluster.drain_all();
    last = cluster.lifecycle();
    while (!open.empty()) {
      cluster.close(open.front());
      open.pop_front();
    }
  }
  state.SetItemsProcessed(last.sessions_opened * state.iterations());
  state.counters["sessions_opened"] = static_cast<double>(last.sessions_opened);
  state.counters["peak_live"] = static_cast<double>(last.peak_live);
  state.counters["peak_resident_kwords"] =
      static_cast<double>(last.peak_resident_words) / 1000.0;
  state.counters["swap_outs"] = static_cast<double>(last.swap_outs);
  state.counters["swap_ins"] = static_cast<double>(last.swap_ins);
  state.SetLabel("live<=" + std::to_string(last.peak_live) + "/" +
                 std::to_string(sessions) + "-sessions");
}
BENCHMARK(BM_ChurnFlatMemory)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// The churn-trace generator alone (the experiment driver's setup cost).
void BM_ChurnTraceGen(benchmark::State& state) {
  workloads::ChurnOptions o;
  o.sessions = state.range(0);
  o.max_concurrent = kLiveBudget;
  o.pushes_per_session = 2;
  std::int64_t events = 0;
  for (auto _ : state) {
    const auto trace = workloads::churn_trace(o);
    events += static_cast<std::int64_t>(trace.size());
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ChurnTraceGen)->Arg(100000)->Arg(1000000);

}  // namespace

BENCHMARK_MAIN();
