// The layer ladder: one fixed tenant set driven through each serving layer
// in turn, every row reporting the same two units (modelled firings and
// cache probes per wall-clock second), so the gap between adjacent rows is
// that layer's overhead:
//
//   simulate            batch replay of each tenant's planned schedule
//   stream              each tenant as a standalone core::Stream
//   cluster1            each tenant alone on a 1-worker Cluster, no LLC
//   cluster4            all tenants on the 4-worker serving Cluster
//                       ("affinity" placement, "uniform" cost model)
//   cluster4_cost       the same with the "two-level" cost model
//   cluster4_adaptive   the same with "adaptive" placement bookkeeping
//
// A worker L1 with no LLC is exactly a standalone LRU, so the stream and
// cluster1 rows must produce identical per-tenant counters.
#include <string>
#include <vector>

#include "bench.h"
#include "core/cluster.h"
#include "core/planner.h"
#include "core/scheduler.h"
#include "core/stream.h"
#include "serve.h"

namespace perfbench {
namespace {

using namespace ccs;

constexpr std::int32_t kTenants = 8;
constexpr std::int64_t kItems = 4096;
constexpr std::int32_t kRepeats = 5;

struct Work {
  std::int64_t firings = 0;
  std::int64_t probes = 0;
};

/// The counters a Stream and a 1-worker no-LLC Cluster must agree on (a
/// Cluster always prices its steps, so cost and latency are left out).
bool same_counters(const runtime::RunResult& a, const runtime::RunResult& b) {
  return a.cache == b.cache && a.firings == b.firings && a.source_firings == b.source_firings &&
         a.sink_firings == b.sink_firings && a.node_misses == b.node_misses &&
         a.state_misses == b.state_misses && a.channel_misses == b.channel_misses &&
         a.io_misses == b.io_misses;
}

Work serve_all(const std::vector<core::Plan>& plans, const std::vector<TenantGraph>& graphs,
               const std::string& placement, const std::string& cost_model) {
  core::ClusterOptions opts = serving_options();
  opts.placement = placement;
  opts.cost_model = cost_model;
  core::Cluster cluster(opts);
  std::vector<core::TenantId> ids;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ids.push_back(cluster.admit(graphs[i].name, graphs[i].graph, plans[i].partition, {}, kPlanWords));
  }
  for (const core::TenantId id : ids) cluster.push(id, kItems);
  cluster.run_until_idle();
  cluster.drain_all();
  const core::ClusterReport r = cluster.report();
  Work w{r.aggregate.firings, r.llc.accesses};
  for (const auto& worker : r.workers) w.probes += worker.l1.accesses;
  return w;
}

}  // namespace

void run_ladder(std::uint64_t seed, Checks& checks, Metrics& out) {
  const std::vector<TenantGraph> graphs = tenant_graphs(seed, kTenants);
  core::PlannerOptions popts;
  popts.cache = {kPlanWords, 8};
  std::vector<core::Plan> plans;
  for (const TenantGraph& g : graphs) plans.push_back(core::Planner(g.graph, popts).plan());
  const iomodel::CacheConfig l1 = serving_options().l1;

  std::vector<runtime::RunResult> stream_runs(graphs.size());
  std::vector<runtime::RunResult> cluster1_runs(graphs.size());

  struct Row {
    const char* name;
    std::function<Work()> run;
  };
  const std::vector<Row> rows = {
      {"ladder.simulate",
       [&] {
         Work w;
         for (std::size_t i = 0; i < graphs.size(); ++i) {
           const runtime::RunResult r =
               core::simulate(graphs[i].graph, plans[i].schedule, l1, kItems);
           w.firings += r.firings;
           w.probes += r.cache.accesses;
         }
         return w;
       }},
      {"ladder.stream",
       [&] {
         Work w;
         for (std::size_t i = 0; i < graphs.size(); ++i) {
           core::Stream stream(graphs[i].graph, plans[i].partition, l1);
           stream.push(kItems);
           stream.run_until_idle();
           stream.drain();
           stream_runs[i] = stream.stats();
           w.firings += stream_runs[i].firings;
           w.probes += stream_runs[i].cache.accesses;
         }
         return w;
       }},
      {"ladder.cluster1",
       [&] {
         Work w;
         core::ClusterOptions opts;
         opts.workers = 1;
         opts.l1 = l1;
         for (std::size_t i = 0; i < graphs.size(); ++i) {
           core::Cluster cluster(opts);
           const core::TenantId id = cluster.admit(graphs[i].name, graphs[i].graph, plans[i].partition);
           cluster.push(id, kItems);
           cluster.run_until_idle();
           cluster.drain_all();
           cluster1_runs[i] = cluster.report().tenants.front().totals;
           w.firings += cluster1_runs[i].firings;
           w.probes += cluster1_runs[i].cache.accesses;
         }
         return w;
       }},
      {"ladder.cluster4", [&] { return serve_all(plans, graphs, "affinity", "uniform"); }},
      {"ladder.cluster4_cost", [&] { return serve_all(plans, graphs, "affinity", "two-level"); }},
      {"ladder.cluster4_adaptive", [&] { return serve_all(plans, graphs, "adaptive", "two-level"); }},
  };

  // Rows are interleaved within each repetition, so a phase of the host
  // that is faster or slower for a while touches every row alike.
  std::vector<std::vector<double>> firing_rates(rows.size());
  std::vector<std::vector<double>> probe_rates(rows.size());
  for (std::int32_t rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      Work w;
      const auto start = Clock::now();
      const bool ok = checks.attempt(rows[r].name, [&] {
        const Span span(rows[r].name, rep);
        w = rows[r].run();
      });
      const double s = seconds_between(start, Clock::now());
      if (!ok || s <= 0.0) continue;
      firing_rates[r].push_back(static_cast<double>(w.firings) / s);
      probe_rates[r].push_back(static_cast<double>(w.probes) / s);
    }
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::string prefix = rows[r].name;
    out[prefix + ".firings_per_s"] = {median(firing_rates[r]), "firings/s"};
    out[prefix + ".probes_per_s"] = {median(probe_rates[r]), "1/s"};
  }

  for (std::size_t i = 0; i < graphs.size(); ++i) {
    checks.expect(same_counters(stream_runs[i], cluster1_runs[i]),
                  "ladder: Stream and 1-worker Cluster counters differ for " + graphs[i].name);
  }
}

}  // namespace perfbench
