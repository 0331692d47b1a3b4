// Multicore serving cluster: Stream sessions sharded over private worker
// caches with affinity-aware placement.
//
//   $ ./cluster_server [--workers=2] [--tenants=4] [--placement=affinity]
//                      [--l1-words=4096] [--llc-words=32768] [--llc-shards=1]
//                      [--ticks=64] [--arrival=bursty-64]
//                      [--rebalance-every=8] [--mode=both]
//                      [--cost-model=uniform] [--slo-p99=0]
//                      [--max-live-sessions=0] [--swap]
//                      [--churn=0] [--churn-max-live=8]
//                      [--no-auto-migrate] [--json]
//
// Demonstrates: core::Cluster admitting sessions onto a runtime::WorkerPool
// (per-worker private L1 over a shared LLC), the four built-in placement
// policies (including "adaptive", which watches footprints and migrates on
// its own), periodic rebalancing (migration pays real reload misses), and
// the two execution modes -- deterministic virtual time and real
// std::thread workers -- whose per-tenant counters must agree (--mode=both
// verifies this and exits nonzero on a mismatch). --no-auto-migrate pins
// adaptive placement to its never-fire baseline, which must reproduce
// --placement=affinity exactly.
//
// Session lifecycle: --max-live-sessions=N switches admission to
// "bounded-live" with budget N; --swap enables the idle-session swap tier.
// --churn=N replaces the steady tick loop with a deterministic
// open/push/close trace of N logical sessions (at most --churn-max-live
// open at once; virtual time only): sessions are admitted, served in
// bursts, and closed forever, so the report's `retired` aggregate carries
// the work and `lifecycle` records peak_live -- run it at N in the
// thousands to watch memory stay O(live). With --swap the churn loop sheds
// every idle session at each quiescent point (aggressive eviction), and the
// report -- minus the one-line "lifecycle" accounting -- must be
// byte-identical to the swap-off run (the CI churn gate).

#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cluster.h"
#include "core/planner.h"
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

/// Runs a churn lifecycle trace (open / bursty push / close) in virtual
/// time. Logical session s runs the shape at s % specs.size(); with the
/// swap tier on, every quiescent point evicts all idle sessions so each
/// later burst pays (and verifies) a rehydration.
ccs::core::ClusterReport serve_churn(const std::vector<TenantSpec>& specs,
                                     const ccs::core::ClusterOptions& opts,
                                     std::int64_t m, std::int64_t sessions,
                                     std::int64_t max_live) {
  using namespace ccs;
  core::Cluster cluster(opts);
  workloads::ChurnOptions churn;
  churn.sessions = sessions;
  churn.max_concurrent = max_live;
  std::unordered_map<std::int64_t, core::TenantId> live;
  for (const workloads::SessionEvent& e : workloads::churn_trace(churn)) {
    switch (e.kind) {
      case workloads::SessionEvent::Kind::kOpen: {
        const TenantSpec& spec =
            specs[static_cast<std::size_t>(e.session) % specs.size()];
        const core::TenantId id =
            cluster.admit("sess-" + std::to_string(e.session), spec.graph,
                          spec.partition, {}, m);
        if (id == core::kNoTenant) {
          throw Error("admission rejected churn session " +
                      std::to_string(e.session) +
                      "; raise --max-live-sessions or add --swap");
        }
        live.emplace(e.session, id);
        break;
      }
      case workloads::SessionEvent::Kind::kPush:
        cluster.push(live.at(e.session), e.items);
        cluster.run_until_idle();
        if (opts.swap) cluster.swap_out_idle();
        break;
      case workloads::SessionEvent::Kind::kClose:
        cluster.close(live.at(e.session));
        live.erase(e.session);
        break;
    }
  }
  cluster.drain_all();
  return cluster.report();
}

/// Runs the whole serving scenario in one execution mode.
ccs::core::ClusterReport serve(const std::vector<TenantSpec>& specs,
                               const ccs::core::ClusterOptions& opts, std::int64_t m,
                               const ccs::workloads::ArrivalPattern& arrival,
                               std::int64_t ticks, std::int64_t rebalance_every,
                               std::int64_t stagger, bool threads) {
  using namespace ccs;
  core::Cluster cluster(opts);
  // Staggering shifts tenant i's arrivals by i*stagger ticks, so bursts
  // land out of phase and different workers overlap different tenants.
  std::vector<workloads::ArrivalPattern> patterns;
  for (const TenantSpec& spec : specs) {
    cluster.admit(spec.name, spec.graph, spec.partition, {}, m);
    patterns.push_back(workloads::phase_shift_arrivals(
        arrival, stagger * static_cast<std::int64_t>(patterns.size())));
  }
  for (std::int64_t tick = 0; tick < ticks; ++tick) {
    for (core::TenantId t = 0; t < cluster.tenant_count(); ++t) {
      cluster.push(t, patterns[static_cast<std::size_t>(t)](tick));
    }
    if (rebalance_every > 0 && tick % rebalance_every == 0) cluster.rebalance();
    if (threads) {
      cluster.run_threads();
    } else {
      cluster.run_until_idle();
    }
  }
  cluster.drain_all();
  return cluster.report();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccs;
  ArgParser args("cluster_server", "multicore serving over sharded worker caches");
  args.add_int("workers", 2, "worker (core) count");
  args.add_int("tenants", 4, "streaming sessions to admit (max 16)");
  args.add_string("placement", "round-robin",
                  "placement policy (round-robin, least-loaded, affinity, adaptive)");
  args.add_int("l1-words", 4096, "per-worker private cache size in words");
  args.add_int("llc-words", 32768, "shared LLC size in words (0 = none)");
  args.add_int("llc-shards", 1, "shared LLC lock stripes (power of two >= 1)");
  args.add_int("plan-words", 1024, "cache share M each tenant plans for");
  args.add_int("ticks", 64, "arrival ticks to serve");
  args.add_string("arrival", "bursty-64", "arrival pattern (ArrivalRegistry key)");
  args.add_int("stagger", 0, "per-tenant arrival phase shift (tenant i waits i*stagger ticks)");
  args.add_int("rebalance-every", 8, "ticks between placement rebalances (0 = never)");
  args.add_string("mode", "both", "virtual, threads, or both (verify agreement)");
  args.add_string("cost-model", "uniform",
                  "latency cost model (CostModelRegistry key: uniform, "
                  "two-level, llc-shared)");
  args.add_int("slo-p99", 0,
               "per-step p99 latency target in modeled cycles (0 = no SLO); "
               "reports per-tenant attainment");
  args.add_int("max-live-sessions", 0,
               "bounded-live admission budget (0 = unbounded admission)");
  args.add_flag("swap", "enable the idle-session swap tier (serialize idle "
                        "sessions; rehydrate transparently on the next push)");
  args.add_int("churn", 0,
               "churn mode: serve this many logical open/push/close sessions "
               "instead of the steady tick loop (virtual time only)");
  args.add_int("churn-max-live", 8, "concurrent-open bound of the churn trace");
  args.add_flag("no-auto-migrate",
                "disable adaptive placement's automatic migration triggers "
                "(the never-fire differential baseline)");
  args.add_flag("json", "emit the deterministic virtual-time report as JSON");
  try {
    if (!args.parse(argc, argv)) return 0;
    const std::string mode = args.get_string("mode");
    if (mode != "virtual" && mode != "threads" && mode != "both") {
      throw Error("unknown --mode '" + mode + "'; valid modes: virtual threads both");
    }
    core::ClusterOptions opts;
    opts.workers = static_cast<std::int32_t>(args.get_int("workers"));
    opts.l1 = {args.get_int("l1-words"), 8};
    opts.llc_words = args.get_int("llc-words");
    opts.llc_shards = static_cast<std::int32_t>(args.get_int("llc-shards"));
    opts.placement = args.get_string("placement");
    opts.cost_model = args.get_string("cost-model");
    opts.slo_p99 = args.get_int("slo-p99");
    opts.auto_migrate = !args.get_flag("no-auto-migrate");
    if (args.get_int("max-live-sessions") > 0) {
      opts.admission = "bounded-live";
      opts.budget.max_live_sessions = args.get_int("max-live-sessions");
    }
    opts.swap = args.get_flag("swap");
    const std::int64_t m = args.get_int("plan-words");
    const std::int64_t ticks = args.get_int("ticks");
    const std::int64_t rebalance_every = args.get_int("rebalance-every");
    const auto arrival =
        workloads::ArrivalRegistry::global().build(args.get_string("arrival"));

    // Tenants cycle through three pipeline shapes: deep uniform, heavy
    // tailed, short and fat -- different working sets for placement to keep
    // (or fail to keep) cache-resident.
    core::PlannerOptions popts;
    popts.cache.capacity_words = m;
    popts.cache.block_words = 8;
    const std::vector<std::pair<std::string, sdf::SdfGraph>> shapes = {
        {"deep-uniform", workloads::uniform_pipeline(20, 150)},
        {"heavy-tail", workloads::heavy_tail_pipeline(16, 48, 500, 4)},
        {"short-fat", workloads::uniform_pipeline(6, 600)}};
    std::vector<TenantSpec> specs;
    const auto tenants = args.get_int("tenants");
    for (std::int64_t i = 0; i < tenants; ++i) {
      const auto& [shape, graph] = shapes[static_cast<std::size_t>(i) % shapes.size()];
      const core::Planner planner(graph, popts);
      specs.push_back({shape + "-" + std::to_string(i), graph,
                       planner.plan("pipeline-dp").partition});
    }

    core::ClusterReport report;  // the one printed below
    const std::int64_t churn = args.get_int("churn");
    if (churn > 0) {
      report = serve_churn(specs, opts, m, churn, args.get_int("churn-max-live"));
      if (args.get_flag("json")) {
        report.write_json(std::cout);
      } else {
        const auto& life = report.lifecycle;
        std::cout << churn << " logical sessions over " << opts.workers
                  << " workers (" << opts.placement << ", admission "
                  << opts.admission << (opts.swap ? ", swap tier on" : "")
                  << ")\n"
                  << "opened " << life.sessions_opened << ", closed "
                  << life.sessions_closed << ", peak live " << life.peak_live
                  << " (peak resident " << life.peak_resident_words
                  << " words), " << life.swap_outs << " swap-outs / "
                  << life.swap_ins << " swap-ins\n"
                  << "retired aggregate: " << report.retired.cache.misses
                  << " misses / " << report.retired.cache.accesses
                  << " accesses, " << report.retired.sink_firings
                  << " outputs -- memory stays O(live) while the work of "
                  << "every closed session survives in `retired`.\n";
      }
      return 0;
    }
    if (mode == "virtual" || mode == "both") {
      report = serve(specs, opts, m, arrival, ticks, rebalance_every,
                     args.get_int("stagger"), false);
    }
    if (mode == "threads" || mode == "both") {
      const core::ClusterReport threaded =
          serve(specs, opts, m, arrival, ticks, rebalance_every,
                args.get_int("stagger"), true);
      if (mode == "threads") {
        report = threaded;
      } else {
        // The determinism contract: per-tenant counters (private-L1 level)
        // are bit-identical across modes, so their sums agree too. Only the
        // shared-LLC hit/miss split may differ under real interleaving.
        for (std::size_t i = 0; i < report.tenants.size(); ++i) {
          if (threaded.tenants[i].totals != report.tenants[i].totals ||
              threaded.tenants[i].worker != report.tenants[i].worker) {
            std::cerr << "error: thread-mode counters for tenant '"
                      << report.tenants[i].name
                      << "' diverged from virtual time\n";
            return 1;
          }
        }
        if (threaded.aggregate != report.aggregate) {
          std::cerr << "error: thread-mode aggregate diverged from virtual time\n";
          return 1;
        }
      }
    }

    if (args.get_flag("json")) {
      report.write_json(std::cout);
      return 0;
    }

    Table tenants_table(std::to_string(specs.size()) + " tenants on " +
                        std::to_string(opts.workers) + " workers (" + opts.placement +
                        ", " + args.get_string("arrival") + ", " + mode + " mode)");
    tenants_table.set_header({"tenant", "worker", "migr", "steps", "outputs", "misses",
                              "miss/out", "p99"});
    tenants_table.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                             Align::kRight, Align::kRight, Align::kRight, Align::kRight});
    for (const auto& row : report.tenants) {
      tenants_table.add_row(
          {row.name, Table::num(static_cast<std::int64_t>(row.worker)),
           Table::num(row.migrations), Table::num(row.steps), Table::num(row.outputs),
           Table::num(row.totals.cache.misses),
           Table::num(row.totals.misses_per_output(), 3),
           Table::num(row.totals.latency.p99())});
    }
    tenants_table.print(std::cout);

    Table workers_table("per-worker occupancy");
    workers_table.set_header({"worker", "tenants", "busy", "steps", "L1 misses"});
    for (std::size_t w = 0; w < report.workers.size(); ++w) {
      const auto& row = report.workers[w];
      workers_table.add_row({Table::num(static_cast<std::int64_t>(w)),
                             Table::num(static_cast<std::int64_t>(row.tenants)),
                             Table::num(row.busy), Table::num(row.steps),
                             Table::num(row.l1.misses)});
    }
    std::cout << "\n";
    workers_table.print(std::cout);

    std::cout << "\nlatency (" << report.cost_model << " model): p50 "
              << report.aggregate.latency.p50() << " / p95 "
              << report.aggregate.latency.p95() << " / p99 "
              << report.aggregate.latency.p99() << " / max "
              << report.aggregate.latency.max() << " modeled cycles per step\n";
    if (report.slo_p99 > 0) {
      std::int64_t within = 0;
      std::vector<std::string> violators;
      for (const auto& row : report.tenants) {
        if (row.totals.latency.p99() <= report.slo_p99) {
          ++within;
        } else {
          violators.push_back(row.name);
        }
      }
      std::cout << "SLO p99 <= " << report.slo_p99 << ": " << within << "/"
                << report.tenants.size() << " tenants within target";
      if (!violators.empty()) {
        std::cout << " (violated by";
        for (const std::string& name : violators) std::cout << " " << name;
        std::cout << ")";
      }
      std::cout << "\n";
    }
    std::cout << "\nmakespan " << report.makespan() << " (imbalance "
              << Table::num(report.imbalance(), 2) << "), " << report.migrations
              << " migrations (" << report.auto_migrations
              << " adaptive-triggered), LLC " << report.llc.misses << " misses / "
              << report.llc.accesses << " accesses\n"
              << "Placement decides which private L1 a session's working set lives\n"
                 "in: affinity keeps it warm, least-loaded chases busy-time balance\n"
                 "and pays reload misses on every move (the paper's §7 trade);\n"
                 "adaptive watches live footprints and sheds hot sessions when a\n"
                 "worker's L1 is oversubscribed.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
