// Multi-tenant streaming server: several applications timesharing one cache.
//
//   $ ./stream_server [--cache-words=4096] [--ticks=64] [--arrival=bursty-64]
//                     [--tenant-policy=round-robin]
//
// Demonstrates: a 1-worker, no-LLC core::Cluster admitting multiple
// core::Stream sessions over one shared cache, tenant multiplexing policies
// (round-robin vs miss-aware), and the cache-interference story at serving
// scale -- each tenant's misses under contention vs the same tenant served
// solo on the same geometry.

#include <iostream>
#include <vector>

#include "core/planner.h"
#include "core/cluster.h"
#include "util/args.h"
#include "util/table.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"

namespace {

struct TenantSpec {
  std::string name;
  ccs::sdf::SdfGraph graph;
  ccs::partition::Partition partition;
};

/// Runs the whole serving scenario and returns the report.
ccs::core::ClusterReport serve(const std::vector<TenantSpec>& specs,
                               const ccs::iomodel::CacheConfig& cache, std::int64_t m,
                               const std::string& tenant_policy,
                               const ccs::workloads::ArrivalPattern& arrival,
                               std::int64_t ticks) {
  using namespace ccs;
  core::ClusterOptions opts;
  opts.workers = 1;  // one cache, no LLC behind it
  opts.l1 = cache;
  opts.tenant_policy = tenant_policy;
  core::Cluster cluster(opts);
  for (const TenantSpec& spec : specs) {
    cluster.admit(spec.name, spec.graph, spec.partition, {}, m);
  }
  for (std::int64_t tick = 0; tick < ticks; ++tick) {
    const std::int64_t items = arrival(tick);
    for (core::TenantId t = 0; t < cluster.tenant_count(); ++t) cluster.push(t, items);
    cluster.run_until_idle();
  }
  cluster.drain_all();
  return cluster.report();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccs;
  ArgParser args("stream_server", "multi-tenant serving over one shared cache");
  args.add_int("cache-words", 4096, "shared cache size in words");
  args.add_int("plan-words", 1024, "cache share M each tenant plans for");
  args.add_int("ticks", 64, "arrival ticks to serve");
  args.add_string("arrival", "bursty-64", "arrival pattern (ArrivalRegistry key)");
  args.add_string("tenant-policy", "round-robin", "round-robin or miss-aware");
  try {
    if (!args.parse(argc, argv)) return 0;
    const iomodel::CacheConfig shared{args.get_int("cache-words"), 8};
    const std::int64_t m = args.get_int("plan-words");
    const std::int64_t ticks = args.get_int("ticks");
    const auto arrival = workloads::ArrivalRegistry::global().build(args.get_string("arrival"));
    const std::string policy = args.get_string("tenant-policy");

    // Three pipeline tenants with different shapes: a deep uniform chain, a
    // heavy-tailed chain, and a short fat one.
    core::PlannerOptions popts;
    popts.cache.capacity_words = m;
    popts.cache.block_words = 8;
    std::vector<TenantSpec> specs;
    for (const auto& [name, graph] :
         {std::pair<std::string, sdf::SdfGraph>{"deep-uniform",
                                                workloads::uniform_pipeline(20, 150)},
          {"heavy-tail", workloads::heavy_tail_pipeline(16, 48, 500, 4)},
          {"short-fat", workloads::uniform_pipeline(6, 600)}}) {
      const core::Planner planner(graph, popts);
      specs.push_back({name, graph, planner.plan("pipeline-dp").partition});
    }

    const auto report = serve(specs, shared, m, policy, arrival, ticks);

    // Solo baselines: each tenant alone on the same shared geometry.
    Table t("tenants on one " + std::to_string(shared.capacity_words) +
            "-word cache (" + policy + ", " + args.get_string("arrival") + ")");
    t.set_header({"tenant", "steps", "outputs", "misses", "miss/out", "solo miss/out",
                  "interference"});
    t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                 Align::kRight, Align::kRight});
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto solo =
          serve({specs[i]}, shared, m, policy, arrival, ticks).tenants.front();
      const auto& row = report.tenants[i];
      const double contended = row.totals.misses_per_output();
      const double alone = solo.totals.misses_per_output();
      t.add_row({row.name, Table::num(row.steps), Table::num(row.outputs),
                 Table::num(row.totals.cache.misses), Table::num(contended, 3),
                 Table::num(alone, 3),
                 alone > 0 ? Table::num(contended / alone, 2) + "x" : "-"});
    }
    t.print(std::cout);

    std::cout << "\naggregate: " << report.aggregate.cache.misses << " misses over "
              << report.steps << " multiplexing decisions; per-tenant counters sum to "
              << "the shared cache's " << report.workers[0].l1.misses << " misses\n"
              << "Interference > 1x is the cache-contention cost of co-residency the\n"
                 "paper's single-application model abstracts away; miss-aware\n"
                 "multiplexing (--tenant-policy=miss-aware) trades fairness for it.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
