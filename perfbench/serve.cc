// serve-steady and serve-churn: the two ways core::Cluster is used.
//
// serve-steady is long-lived serving: a dozen mixed tenants whose summed
// state oversubscribes one private L1 receive steady, seed-phase-shifted
// arrivals; a tick is one push to every tenant plus run_until_idle(). The
// per-firing path (Engine, L1/LLC probes, rounds, placement, pricing) does
// nearly all the work and the session layer nothing.
//
// serve-churn is session lifecycle: a seeded churn trace opens, feeds and
// closes many short sessions under "bounded-live" admission with the swap
// tier on, shedding every idle session after each push, so the next push
// to a session rehydrates it. A tick is one trace event. Admission, close,
// swap-out and rehydration do most of the work.
#include "serve.h"

#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/planner.h"
#include "util/rng.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"

namespace perfbench {

using namespace ccs;

std::vector<TenantGraph> tenant_graphs(std::uint64_t seed, std::int32_t count) {
  // Family and size are fixed by the tenant's index; the seed draws module
  // states from narrow ranges and the dags' edges, so every seed serves a
  // mix of the same shape and total work.
  Rng rng(seed);
  std::vector<TenantGraph> out;
  for (std::int32_t i = 0; i < count; ++i) {
    const std::string tag = std::string("-") + std::to_string(i);
    switch (i % 4) {
      case 0:
        out.push_back({"uniform" + tag, workloads::uniform_pipeline(8, rng.uniform(96, 128))});
        break;
      case 1:
        out.push_back({"heavy-tail" + tag,
                       workloads::heavy_tail_pipeline(10, rng.uniform(48, 64),
                                                      rng.uniform(320, 384), 5)});
        break;
      case 2:
        out.push_back({"hourglass" + tag,
                       workloads::hourglass_pipeline(6, rng.uniform(96, 128), 2)});
        break;
      default: {
        workloads::LayeredSpec spec;
        spec.layers = 3;
        spec.width = 3;
        spec.state_lo = 64;
        spec.state_hi = 128;
        out.push_back({"layered" + tag, workloads::layered_homogeneous_dag(spec, rng)});
        break;
      }
    }
  }
  return out;
}

core::ClusterOptions serving_options() {
  core::ClusterOptions opts;
  opts.workers = 4;
  opts.l1 = {4096, 8};
  opts.llc_words = 32768;
  opts.placement = "adaptive";
  opts.cost_model = "two-level";
  return opts;
}

namespace {


struct Planned {
  std::string name;
  sdf::SdfGraph graph;
  partition::Partition partition;
};

/// Plans every tenant at kPlanWords (set-up work, spanned per layer).
std::vector<Planned> plan_tenants(std::vector<TenantGraph> graphs) {
  std::vector<Planned> out;
  core::PlannerOptions opts;
  opts.cache = {kPlanWords, 8};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    std::unique_ptr<core::Planner> planner;
    {
      const Span span("core.planner.ctor", id);
      planner = std::make_unique<core::Planner>(graphs[i].graph, opts);
    }
    const Span span("core.planner.plan", id);
    out.push_back({graphs[i].name, std::move(graphs[i].graph), planner->plan().partition});
  }
  return out;
}

latency::Histogram step_costs(const core::ClusterReport& r) {
  latency::Histogram h;
  for (const auto& w : r.workers) h += w.latency;
  return h;
}

std::string report_json(const core::ClusterReport& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

/// The report JSON without its one-line lifecycle block: what a swap-on
/// run must share with the swap-off replay of the same trace.
std::string without_lifecycle(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"lifecycle\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

class Serve : public Workload {
 public:
  /// `slo_cycles` is the modelled step cost the workload's SLO allows; a
  /// power of two minus one is the top of a log2 histogram bucket, so
  /// attainment is exact.
  Serve(std::uint64_t seed, std::string label, std::int64_t slo_cycles)
      : seed_(seed), label_(std::move(label)), slo_cycles_(slo_cycles) {}

  void first_touch() override {
    core::PlannerOptions popts;
    popts.cache = {kPlanWords, 8};
    const core::Planner planner(workloads::uniform_pipeline(4, 64), popts);
    const core::Plan plan = planner.plan();
    core::Cluster cluster(options());
    const core::TenantId id = cluster.admit("touch", planner.graph(), plan.partition, {}, kPlanWords);
    cluster.push(id, 16);
    cluster.run_until_idle();
    if (options().swap) cluster.swap_out_idle();
    cluster.close(id);
    cluster.report();
  }

  void model_metrics(Metrics& out) const override {
    out["misses_per_output"] = {first_.aggregate.misses_per_output(), "misses/output"};
  }

  void layer_metrics(const std::map<std::string, Tracer::NameTotals>& spans, std::int64_t passes,
                     Metrics& out) const override {
    const core::ClusterReport& r = first_;
    iomodel::CacheStats l1;
    for (const auto& w : r.workers) {
      l1.accesses += w.l1.accesses;
      l1.misses += w.l1.misses;
      l1.writebacks += w.l1.writebacks;
    }
    const latency::Histogram costs = step_costs(r);
    std::int64_t within_slo = 0;
    for (std::int32_t b = 0; b <= latency::Histogram::bucket_of(slo_cycles_); ++b) {
      within_slo += costs.bucket(b);
    }
    const auto count = [](std::int64_t v) { return Metric{static_cast<double>(v), "count"}; };
    const auto ratio = [](std::int64_t a, std::int64_t b) {
      return Metric{b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0, "ratio"};
    };
    out["runtime.firings"] = count(r.aggregate.firings);
    out["iomodel.l1.accesses"] = count(l1.accesses);
    out["iomodel.l1.misses"] = count(l1.misses);
    out["iomodel.l1.writebacks"] = count(l1.writebacks);
    out["iomodel.llc.accesses"] = count(r.llc.accesses);
    out["iomodel.llc.misses"] = count(r.llc.misses);
    out["core.cluster.steps"] = count(r.steps);
    out["core.cluster.rounds"] = count(r.rounds);
    out["core.cluster.utilization"] =
        ratio(r.steps, r.rounds * static_cast<std::int64_t>(r.workers.size()));
    out["placement.migrations"] = count(r.migrations);
    out["placement.auto_migrations"] = count(r.auto_migrations);
    out["latency.p50_cycles"] = {static_cast<double>(costs.p50()), "cycles"};
    out["latency.p99_cycles"] = {static_cast<double>(costs.p99()), "cycles"};
    out["latency.slo_attained"] = ratio(within_slo, costs.count());
    out["session.swap_outs"] = count(r.lifecycle.swap_outs);
    out["session.swap_ins"] = count(r.lifecycle.swap_ins);
    out["session.peak_live"] = count(r.lifecycle.peak_live);
    out["session.peak_resident_words"] = {static_cast<double>(r.lifecycle.peak_resident_words),
                                          "words"};
    out["session.swap_peak_stored_bytes"] = {static_cast<double>(r.swap_peak_stored_bytes),
                                             "bytes"};
    out["session.rehydrate_ratio"] = ratio(r.lifecycle.swap_ins, r.lifecycle.swap_outs);

    double probing_s = 0.0;
    for (const char* name : {"core.cluster.run", "core.cluster.drain"}) {
      const auto it = spans.find(name);
      if (it != spans.end()) probing_s += it->second.total_s;
    }
    if (probing_s > 0.0) {
      out["iomodel.probes_per_s"] = {static_cast<double>(l1.accesses + r.llc.accesses) *
                                         static_cast<double>(passes) / probing_s,
                                     "1/s"};
    }
  }

 protected:
  /// Ends a pass: counts the timed ticks' firings, drains, reports, and
  /// checks the report's conservation laws and its equality with pass 0.
  void finish_pass(core::Cluster& cluster, std::int64_t pass, PassTiming& timing,
                   Checks& checks) {
    timing.firings = cluster.report().aggregate.firings;
    {
      const Span span("core.cluster.drain", pass);
      cluster.drain_all();
    }
    core::ClusterReport r;
    {
      const Span span("core.cluster.report", pass);
      r = cluster.report();
    }
    runtime::RunResult sum = r.retired;
    for (const auto& t : r.tenants) sum += t.totals;
    checks.expect(sum == r.aggregate, label_ + ": per-tenant totals do not sum to the aggregate");
    checks.expect(step_costs(r).count() == r.steps && r.aggregate.latency.count() == r.steps,
                  label_ + ": latency histogram count differs from steps");
    check_lifecycle(r, checks);
    std::string json = report_json(r);
    if (first_json_.empty()) {
      first_json_ = std::move(json);
      first_ = std::move(r);
      first_pass(checks);
    } else {
      checks.expect(json == first_json_,
                    label_ + ": pass " + std::to_string(pass) + " report differs from the first");
    }
  }

  virtual void check_lifecycle(const core::ClusterReport&, Checks&) const {}
  virtual void first_pass(Checks&) {}

  /// The cluster every pass serves on (SLO set, per-workload admission).
  core::ClusterOptions options() const {
    core::ClusterOptions o = serving_options();
    o.slo_p99 = slo_cycles_;
    adjust(o);
    return o;
  }

  virtual void adjust(core::ClusterOptions&) const {}

  std::uint64_t seed_;
  std::string label_;
  std::int64_t slo_cycles_;
  core::ClusterReport first_;
  std::string first_json_;
};

class ServeSteady final : public Serve {
 public:
  static constexpr std::int32_t kTenants = 12;
  static constexpr std::int64_t kTicks = 1000;

  explicit ServeSteady(std::uint64_t seed)
      : Serve(seed, "serve-steady", (std::int64_t{1} << 14) - 1) {}

  PassTiming run_pass(std::int64_t pass, Checks& checks) override {
    PassTiming timing;
    const auto setup_start = Clock::now();
    std::vector<TenantGraph> graphs;
    std::vector<workloads::ArrivalPattern> arrivals;
    {
      const Span span("workloads.gen", pass);
      graphs = tenant_graphs(seed_, kTenants);
      // Rates are fixed per tenant (4, 8 or 12 items a tick); the seed
      // shifts when each tenant's arrivals start.
      Rng rng(seed_ ^ 0xa5a5a5a5ULL);
      for (std::int32_t i = 0; i < kTenants; ++i) {
        arrivals.push_back(workloads::phase_shift_arrivals(
            workloads::steady_arrivals(4 * (1 + i % 3)), rng.uniform(0, 31)));
      }
    }
    const std::vector<Planned> tenants = plan_tenants(std::move(graphs));
    std::unique_ptr<core::Cluster> cluster;
    {
      const Span span("core.cluster.ctor", pass);
      cluster = std::make_unique<core::Cluster>(options());
    }
    std::vector<core::TenantId> ids;
    for (const Planned& t : tenants) {
      const Span span("core.cluster.admit", static_cast<std::int64_t>(ids.size()));
      ids.push_back(cluster->admit(t.name, t.graph, t.partition, {}, kPlanWords));
      checks.expect(ids.back() != core::kNoTenant, label_ + ": admission of " + t.name + " refused");
    }
    timing.setup_s = seconds_between(setup_start, Clock::now());

    for (std::int64_t tick = 0; tick < kTicks; ++tick) {
      const auto tick_start = Clock::now();
      const bool ok = checks.attempt("serve-steady tick", [&] {
        const Span span("tick", tick);
        {
          const Span push("core.cluster.push", tick);
          for (std::size_t i = 0; i < ids.size(); ++i) cluster->push(ids[i], arrivals[i](tick));
        }
        const Span run("core.cluster.run", tick);
        cluster->run_until_idle();
      });
      if (ok) timing.tick_s.push_back(seconds_between(tick_start, Clock::now()));
    }
    finish_pass(*cluster, pass, timing, checks);
    return timing;
  }

  std::string sizes_json() const override {
    std::ostringstream os;
    const auto o = options();
    os << "{\"tenants\": " << kTenants << ", \"ticks_per_pass\": " << kTicks
       << ", \"plan_words\": " << kPlanWords << ", \"workers\": " << o.workers
       << ", \"l1_words\": " << o.l1.capacity_words << ", \"llc_words\": " << o.llc_words
       << ", \"placement\": \"" << o.placement << "\", \"cost_model\": \"" << o.cost_model
       << "\", \"slo_cycles\": " << slo_cycles_ << "}";
    return os.str();
  }
};

class ServeChurn final : public Serve {
 public:
  static constexpr std::int32_t kShapes = 8;

  explicit ServeChurn(std::uint64_t seed)
      : Serve(seed, "serve-churn", (std::int64_t{1} << 18) - 1) {
    churn_.sessions = 400;
    churn_.max_concurrent = 12;
    churn_.pushes_per_session = 4;
    churn_.items_per_push = 256;
    churn_.seed = seed;
  }

  PassTiming run_pass(std::int64_t pass, Checks& checks) override {
    PassTiming timing;
    const auto setup_start = Clock::now();
    std::vector<TenantGraph> graphs;
    {
      const Span span("workloads.gen", pass);
      graphs = tenant_graphs(seed_, kShapes);
      trace_ = workloads::churn_trace(churn_);
    }
    shapes_ = plan_tenants(std::move(graphs));
    std::unique_ptr<core::Cluster> cluster;
    {
      const Span span("core.cluster.ctor", pass);
      cluster = std::make_unique<core::Cluster>(options());
    }
    timing.setup_s = seconds_between(setup_start, Clock::now());

    closed_swapped_ = 0;
    std::vector<core::TenantId> live(static_cast<std::size_t>(churn_.sessions), core::kNoTenant);
    for (std::size_t tick = 0; tick < trace_.size(); ++tick) {
      const workloads::SessionEvent& e = trace_[tick];
      core::TenantId& id = live[static_cast<std::size_t>(e.session)];
      const auto tick_start = Clock::now();
      const bool ok = checks.attempt("serve-churn event", [&] {
        const Span span("tick", static_cast<std::int64_t>(tick));
        apply(*cluster, e, id, /*swap=*/true);
      });
      if (!ok) continue;
      timing.tick_s.push_back(seconds_between(tick_start, Clock::now()));
      if (e.kind == workloads::SessionEvent::Kind::kOpen) {
        checks.expect(id != core::kNoTenant,
                      "serve-churn: admission of session " + std::to_string(e.session) + " refused");
      }
    }
    finish_pass(*cluster, pass, timing, checks);
    return timing;
  }

  std::string sizes_json() const override {
    std::ostringstream os;
    const auto o = options();
    os << "{\"shapes\": " << kShapes << ", \"sessions\": " << churn_.sessions
       << ", \"max_concurrent\": " << churn_.max_concurrent
       << ", \"pushes_per_session\": " << churn_.pushes_per_session
       << ", \"items_per_push\": " << churn_.items_per_push
       << ", \"events_per_pass\": " << trace_.size() << ", \"plan_words\": " << kPlanWords
       << ", \"workers\": " << o.workers << ", \"l1_words\": " << o.l1.capacity_words
       << ", \"llc_words\": " << o.llc_words << ", \"placement\": \"" << o.placement
       << "\", \"cost_model\": \"" << o.cost_model << "\", \"admission\": \"" << o.admission
       << "\", \"max_live_sessions\": " << o.budget.max_live_sessions
       << ", \"slo_cycles\": " << slo_cycles_ << "}";
    return os.str();
  }

 protected:
  void adjust(core::ClusterOptions& o) const override {
    // The budget equals the trace's concurrency bound: after each push every
    // idle session is shed, so admissions are never refused.
    o.admission = "bounded-live";
    o.budget.max_live_sessions = churn_.max_concurrent;
    o.swap = true;
  }

  void check_lifecycle(const core::ClusterReport& r, Checks& checks) const override {
    const session::LifecycleCounters& c = r.lifecycle;
    checks.expect(c.sessions_opened ==
                      c.sessions_closed + static_cast<std::int64_t>(r.tenants.size()),
                  "serve-churn: opened != closed + open");
    // Closing a swapped session discards its image without a swap-in, so
    // swap_outs - swap_ins counts those sessions on top of the swapped ones.
    checks.expect(c.swap_outs - c.swap_ins == c.swapped_sessions + closed_swapped_,
                  "serve-churn: swap_outs - swap_ins != swapped now + closed while swapped");
  }

  /// The swap-off replay of the same trace must reproduce every counter.
  /// It runs once, after the very first pass, before tracing is ever on.
  void first_pass(Checks& checks) override {
    core::ClusterOptions o = options();
    o.swap = false;
    o.admission = "unbounded";
    core::Cluster cluster(o);
    std::vector<core::TenantId> live(static_cast<std::size_t>(churn_.sessions), core::kNoTenant);
    for (const workloads::SessionEvent& e : trace_) {
      apply(cluster, e, live[static_cast<std::size_t>(e.session)], /*swap=*/false);
    }
    cluster.drain_all();
    checks.expect(without_lifecycle(report_json(cluster.report())) ==
                      without_lifecycle(first_json_),
                  "serve-churn: swap-on counters differ from the swap-off replay");
  }

 private:
  /// Applies one trace event; `swap` sheds every idle session after a push.
  void apply(core::Cluster& cluster, const workloads::SessionEvent& e, core::TenantId& id,
             bool swap) {
    switch (e.kind) {
      case workloads::SessionEvent::Kind::kOpen: {
        const Planned& shape = shapes_[static_cast<std::size_t>(e.session % kShapes)];
        const Span span("core.cluster.admit", e.session);
        id = cluster.admit(shape.name + "#" + std::to_string(e.session), shape.graph,
                           shape.partition, {}, kPlanWords);
        break;
      }
      case workloads::SessionEvent::Kind::kPush: {
        {
          const Span span("core.cluster.push", e.session);
          cluster.push(id, e.items);
        }
        {
          const Span span("core.cluster.run", e.session);
          cluster.run_until_idle();
        }
        if (swap) {
          const Span span("core.cluster.swap_out", e.session);
          cluster.swap_out_idle();
        }
        break;
      }
      case workloads::SessionEvent::Kind::kClose: {
        if (swap && cluster.swapped(id)) ++closed_swapped_;
        const Span span("core.cluster.close", e.session);
        cluster.close(id);
        id = core::kNoTenant;
        break;
      }
    }
  }

  workloads::ChurnOptions churn_;
  std::vector<workloads::SessionEvent> trace_;
  std::int64_t closed_swapped_ = 0;  ///< This pass's closes of swapped sessions.
  std::vector<Planned> shapes_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_steady(std::uint64_t seed) {
  return std::make_unique<ServeSteady>(seed);
}

std::unique_ptr<Workload> make_serve_churn(std::uint64_t seed) {
  return std::make_unique<ServeChurn>(seed);
}

}  // namespace perfbench
