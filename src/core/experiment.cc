#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/cluster.h"
#include "core/scheduler.h"
#include "schedule/schedule.h"
#include "util/error.h"
#include "util/format.h"
#include "util/int_math.h"

namespace ccs::core {

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
}

/// Capacity of the cache a cell measures on: `cache` grown by `factor` (the
/// paper's constant-factor memory augmentation, Theorem 5's regime), at
/// least one block.
std::int64_t augmented_words(const iomodel::CacheConfig& cache, double factor) {
  return std::max<std::int64_t>(
      cache.block_words,
      static_cast<std::int64_t>(std::llround(factor * static_cast<double>(cache.capacity_words))));
}

iomodel::CacheConfig augmented(const iomodel::CacheConfig& cache, double factor) {
  iomodel::CacheConfig out = cache;
  out.capacity_words = augmented_words(cache, factor);
  validate_cache_geometry(out);
  return out;
}

}  // namespace

Experiment::Experiment(SweepSpec spec, const workloads::Registry* workload_registry,
                       const partition::Registry* partitioner_registry,
                       const schedule::Registry* scheduler_registry,
                       const workloads::ArrivalRegistry* arrival_registry)
    : spec_(std::move(spec)),
      workloads_(workload_registry != nullptr ? workload_registry
                                              : &workloads::Registry::global()),
      partitioners_(partitioner_registry != nullptr ? partitioner_registry
                                                    : &partition::Registry::global()),
      schedulers_(scheduler_registry != nullptr ? scheduler_registry
                                                : &schedule::Registry::global()),
      arrivals_(arrival_registry != nullptr ? arrival_registry
                                            : &workloads::ArrivalRegistry::global()) {}

std::vector<CellResult> Experiment::enumerate() const {
  std::vector<CellResult> out;
  const std::vector<std::int64_t> t_mults =
      spec_.t_multipliers.empty() ? std::vector<std::int64_t>{1} : spec_.t_multipliers;
  const std::vector<std::int32_t> tenant_counts = spec_.online.tenant_counts.empty()
                                                      ? std::vector<std::int32_t>{1}
                                                      : spec_.online.tenant_counts;
  const std::vector<std::int32_t> cluster_tenant_counts =
      spec_.cluster.tenant_counts.empty() ? std::vector<std::int32_t>{1}
                                          : spec_.cluster.tenant_counts;
  const std::vector<std::int32_t> cluster_worker_counts =
      spec_.cluster.worker_counts.empty() ? std::vector<std::int32_t>{1}
                                          : spec_.cluster.worker_counts;
  const std::vector<std::string> cluster_placements =
      spec_.cluster.placements.empty() ? std::vector<std::string>{"round-robin"}
                                       : spec_.cluster.placements;
  const std::vector<std::string> cluster_cost_models =
      spec_.cluster.cost_models.empty() ? std::vector<std::string>{"uniform"}
                                        : spec_.cluster.cost_models;
  for (const std::string& workload : spec_.workloads) {
    for (const iomodel::CacheConfig& cache : spec_.caches) {
      for (const std::string& partitioner : spec_.partitioners) {
        for (const std::int64_t t : t_mults) {
          CellResult cell;
          cell.workload = workload;
          cell.cache = cache;
          cell.strategy = partitioner;
          cell.t_multiplier = t;
          out.push_back(std::move(cell));
        }
      }
      for (const std::string& baseline : spec_.baselines) {
        CellResult cell;
        cell.workload = workload;
        cell.cache = cache;
        cell.strategy = baseline;
        cell.is_baseline = true;
        out.push_back(std::move(cell));
      }
      for (const std::string& arrival : spec_.online.arrivals) {
        for (const std::int32_t tenants : tenant_counts) {
          CellResult cell;
          cell.workload = workload;
          cell.cache = cache;
          cell.strategy = "auto";
          cell.is_online = true;
          cell.arrival = arrival;
          cell.tenants = tenants;
          out.push_back(std::move(cell));
        }
      }
      for (const std::string& arrival : spec_.cluster.arrivals) {
        for (const std::int32_t tenants : cluster_tenant_counts) {
          for (const std::int32_t workers : cluster_worker_counts) {
            for (const std::string& placement : cluster_placements) {
              for (const std::string& cost_model : cluster_cost_models) {
                CellResult cell;
                cell.workload = workload;
                cell.cache = cache;
                cell.strategy = "auto";
                cell.is_cluster = true;
                cell.arrival = arrival;
                cell.tenants = tenants;
                cell.workers = workers;
                cell.placement = placement;
                cell.cost_model = cost_model;
                out.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::size_t Experiment::cell_count() const { return enumerate().size(); }

void Experiment::run_cell(CellResult& cell) const {
  try {
    if (cell.is_online || cell.is_cluster) {
      run_serving_cell(cell);
      cell.misses_per_input = cell.run.misses_per_input();
      cell.misses_per_output = cell.run.misses_per_output();
      cell.ok = true;
      return;
    }
    const sdf::SdfGraph graph = workloads_->build(cell.workload);

    schedule::Schedule sched;
    if (cell.is_baseline) {
      schedule::SchedulerContext ctx;
      ctx.cache_words = cell.cache.capacity_words;
      ctx.block_words = cell.cache.block_words;
      sched = schedulers_->build(cell.strategy, graph, ctx);
      cell.resolved_strategy = cell.strategy;
    } else {
      PlannerOptions opts;
      opts.cache = cell.cache;
      opts.c_bound = spec_.c_bound;
      opts.partitioner = cell.strategy;
      opts.t_multiplier = cell.t_multiplier;
      opts.seed = spec_.seed;
      const Planner planner(graph, opts, partitioners_);
      Plan plan = planner.plan();
      cell.resolved_strategy = plan.partitioner_name;
      cell.components = plan.partition.num_components;
      cell.batch_t = plan.batch_t;
      cell.bandwidth = plan.partition_bandwidth.to_double();
      cell.predicted_misses_per_input = plan.predicted.misses_per_input;
      sched = std::move(plan.schedule);
    }
    cell.schedule_name = sched.name;
    cell.buffer_words = sched.total_buffer_words();

    // Measure on the augmented cache. Each repetition is one simulate(): a
    // fresh engine on a fresh cold cache, nothing shared with any other
    // cell or repetition, which is what makes the sweep order- and
    // thread-count-independent. Every repetition must reproduce the first
    // bit-for-bit or the cell is flagged.
    const iomodel::CacheConfig sim = augmented(cell.cache, spec_.sim_capacity_factor);
    const auto measure = [&]() {
      return simulate(graph, sched, sim, spec_.target_outputs);
    };
    cell.run = measure();
    for (std::int32_t rep = 1; rep < spec_.repetitions; ++rep) {
      if (measure() != cell.run) {
        throw Error("repetition " + std::to_string(rep) +
                    " diverged from the first measurement (nondeterministic strategy "
                    "or runtime)");
      }
    }
    cell.misses_per_input = cell.run.misses_per_input();
    cell.misses_per_output = cell.run.misses_per_output();
    cell.ok = true;
  } catch (const std::exception& e) {
    cell.ok = false;
    cell.error = e.what();
  }
}

void Experiment::run_serving_cell(CellResult& cell) const {
  const sdf::SdfGraph graph = workloads_->build(cell.workload);

  // Plan once with the "auto" partitioner; every tenant serves this plan.
  PlannerOptions opts;
  opts.cache = cell.cache;
  opts.c_bound = spec_.c_bound;
  opts.partitioner = "auto";
  opts.seed = spec_.seed;
  const Planner planner(graph, opts, partitioners_);
  const Plan plan = planner.plan();
  cell.resolved_strategy = schedule::resolve_auto_policy(graph);
  cell.components = plan.partition.num_components;
  cell.bandwidth = plan.partition_bandwidth.to_double();
  cell.schedule_name = (cell.is_online ? "online:" : "cluster:") + cell.resolved_strategy;

  // Each worker's private L1 gets the augmented geometry (same regime as
  // the batch cells), but tenants size their Theta(M) cross buffers for
  // the planned M; the optional shared LLC scales off the L1.
  const iomodel::CacheConfig l1 = augmented(cell.cache, spec_.sim_capacity_factor);

  const workloads::ArrivalPattern pattern = arrivals_->build(cell.arrival);
  std::int64_t buffer_words = 0;  // per-tenant budget under the online rule
  const auto measure = [&]() {
    ClusterOptions cluster_opts;
    cluster_opts.l1 = l1;
    if (cell.is_online) {
      // Online cells timeshare one cache: one worker, no LLC.
      cluster_opts.workers = 1;
      cluster_opts.tenant_policy = spec_.online.tenant_policy;
    } else {
      cluster_opts.workers = cell.workers;
      cluster_opts.llc_words =
          spec_.cluster.llc_factor > 0 ? spec_.cluster.llc_factor * l1.capacity_words : 0;
      cluster_opts.llc_shards = spec_.cluster.llc_shards;
      cluster_opts.placement = cell.placement;
      cluster_opts.cost_model = cell.cost_model;
      cluster_opts.slo_p99 = spec_.cluster.slo_p99;
      cluster_opts.admission = spec_.cluster.admission;
      cluster_opts.budget.max_live_sessions = spec_.cluster.max_live_sessions;
      cluster_opts.swap = spec_.cluster.swap;
      cluster_opts.band_words = spec_.cluster.band_words;
    }
    Cluster cluster(cluster_opts);
    const StreamOptions stream_opts;  // the "auto" online policy

    if (cell.is_cluster && spec_.cluster.churn_sessions > 0) {
      // Churn mode: the lifecycle trace decides who opens, pushes, and
      // closes; sessions idle between their own bursts (swap-tier fodder).
      workloads::ChurnOptions churn;
      churn.sessions = spec_.cluster.churn_sessions;
      churn.max_concurrent = spec_.cluster.churn_max_live;
      churn.seed = spec_.seed;
      std::unordered_map<std::int64_t, TenantId> live_ids;
      for (const workloads::SessionEvent& e : workloads::churn_trace(churn)) {
        switch (e.kind) {
          case workloads::SessionEvent::Kind::kOpen: {
            const TenantId id =
                cluster.admit("sess-" + std::to_string(e.session), graph,
                              plan.partition, stream_opts, cell.cache.capacity_words);
            if (id == kNoTenant) {
              throw Error("churn admission rejected session " +
                          std::to_string(e.session) +
                          " (budget too tight for the trace's concurrency)");
            }
            live_ids.emplace(e.session, id);
            if (e.session == 0) {
              buffer_words = 0;
              for (const std::int64_t cap :
                   cluster.stream(id).policy().buffer_caps()) {
                buffer_words += cap;
              }
            }
            break;
          }
          case workloads::SessionEvent::Kind::kPush:
            cluster.push(live_ids.at(e.session), e.items);
            cluster.run_until_idle();
            // With the swap tier on, every quiescent point sheds all idle
            // sessions -- the aggressive-eviction regime, so churn cells
            // actually round-trip sessions instead of merely allowing it.
            if (cluster_opts.swap) cluster.swap_out_idle();
            break;
          case workloads::SessionEvent::Kind::kClose:
            cluster.close(live_ids.at(e.session));
            live_ids.erase(e.session);
            break;
        }
      }
      cluster.drain_all();
      return cluster.report();
    }

    for (std::int32_t t = 0; t < cell.tenants; ++t) {
      cluster.admit("tenant-" + std::to_string(t), graph, plan.partition, stream_opts,
                    cell.cache.capacity_words);
    }
    if (cluster.tenant_count() > 0) {
      buffer_words = 0;
      for (const std::int64_t cap : cluster.stream(0).policy().buffer_caps()) {
        buffer_words += cap;
      }
    }
    // Deterministic virtual time; the placement policy is consulted at
    // every tick boundary, so migration-happy policies actually migrate
    // (on one worker there is nowhere to go).
    const std::int64_t ticks = cell.is_online ? spec_.online.ticks : spec_.cluster.ticks;
    for (std::int64_t tick = 0; tick < ticks; ++tick) {
      const std::int64_t items = pattern(tick);
      for (TenantId t = 0; t < cluster.tenant_count(); ++t) cluster.push(t, items);
      cluster.rebalance();
      cluster.run_until_idle();
    }
    cluster.drain_all();
    return cluster.report();
  };

  ClusterReport report = measure();
  for (std::int32_t rep = 1; rep < spec_.repetitions; ++rep) {
    const ClusterReport again = measure();
    bool identical = again.aggregate == report.aggregate &&
                     again.llc == report.llc &&
                     again.migrations == report.migrations &&
                     again.auto_migrations == report.auto_migrations &&
                     again.retired == report.retired &&
                     again.lifecycle == report.lifecycle &&
                     again.tenants.size() == report.tenants.size();
    for (std::size_t i = 0; identical && i < report.tenants.size(); ++i) {
      identical = again.tenants[i].totals == report.tenants[i].totals &&
                  again.tenants[i].worker == report.tenants[i].worker;
    }
    if (!identical) {
      throw Error("repetition " + std::to_string(rep) +
                  " diverged from the first measurement (nondeterministic tenant or placement "
                  "policy or runtime)");
    }
  }
  cell.run = report.aggregate;
  cell.server_steps = report.steps;
  cell.buffer_words = buffer_words;
  if (cell.is_online) return;  // the cluster columns stay zero for online cells
  cell.cluster_makespan = report.makespan();
  cell.cluster_migrations = report.migrations;
  cell.cluster_auto_migrations = report.auto_migrations;
  cell.cluster_peak_live = report.lifecycle.peak_live;
  cell.cluster_p50 = report.aggregate.latency.p50();
  cell.cluster_p95 = report.aggregate.latency.p95();
  cell.cluster_p99 = report.aggregate.latency.p99();
  for (const ClusterTenantReport& t : report.tenants) {
    if (spec_.cluster.slo_p99 <= 0 || t.totals.latency.p99() <= spec_.cluster.slo_p99) {
      ++cell.cluster_slo_ok;
    }
  }
}

ExperimentResult Experiment::run(std::int32_t threads) const {
  if (spec_.workloads.empty()) throw Error("sweep spec lists no workloads");
  if (spec_.caches.empty()) throw Error("sweep spec lists no cache geometries");
  if (spec_.partitioners.empty() && spec_.baselines.empty() &&
      spec_.online.arrivals.empty() && spec_.cluster.arrivals.empty()) {
    throw Error(
        "sweep spec lists no partitioners, no baseline schedulers, and no "
        "online or cluster arrival patterns");
  }
  if (spec_.repetitions < 1) throw Error("sweep spec needs repetitions >= 1");
  // Every cell measures on the augmented cache.
  for (const iomodel::CacheConfig& cache : spec_.caches) {
    validate_word_factor(spec_.sim_capacity_factor, cache.capacity_words,
                         "sim_capacity_factor");
  }
  if ((!spec_.partitioners.empty() || !spec_.baselines.empty()) && spec_.target_outputs < 1) {
    throw Error("sweep spec needs target_outputs >= 1 for partitioner and baseline cells");
  }
  if (!spec_.online.arrivals.empty() && spec_.online.ticks < 1) {
    throw Error("online sweep needs ticks >= 1");
  }
  if (!spec_.cluster.arrivals.empty()) {
    if (spec_.cluster.ticks < 1) throw Error("cluster sweep needs ticks >= 1");
    if (spec_.cluster.llc_factor < 0) {
      throw Error("cluster sweep needs llc_factor >= 0");
    }
    // Each cluster cell's LLC is llc_factor times its augmented L1, which
    // the sim_capacity_factor check above keeps at >= 1 word.
    for (const iomodel::CacheConfig& cache : spec_.caches) {
      const std::int64_t l1_words = augmented_words(cache, spec_.sim_capacity_factor);
      if (spec_.cluster.llc_factor > std::numeric_limits<std::int64_t>::max() / l1_words) {
        throw Error("cluster sweep needs llc_factor * the augmented L1 (" +
                    std::to_string(l1_words) + " words) to fit in int64 (llc_factor " +
                    std::to_string(spec_.cluster.llc_factor) + ")");
      }
    }
    if (spec_.cluster.llc_shards < 1 || !is_pow2(spec_.cluster.llc_shards)) {
      throw Error("cluster sweep needs llc_shards to be a power of two >= 1");
    }
    if (spec_.cluster.churn_sessions < 0) {
      throw Error("cluster sweep needs churn_sessions >= 0");
    }
    if (spec_.cluster.churn_sessions > 0 && spec_.cluster.churn_max_live < 1) {
      throw Error("churn sweep needs churn_max_live >= 1");
    }
  }

  ExperimentResult result;
  result.threads = std::max<std::int32_t>(1, threads);
  result.cells = enumerate();

  // wall_seconds is diagnostic throughput metadata, never simulated
  // output: every cell's counters are clock-independent (the sweep is
  // differential-tested bit-identical across thread counts).
  const auto started = std::chrono::steady_clock::now();  // ccs-lint: allow(wall-clock)
  // Work-stealing by atomic index: workers claim cells dynamically but write
  // only their own pre-sized slot, so the output is in grid order and
  // identical for any pool size.
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= result.cells.size()) break;
      run_cell(result.cells[i]);
    }
  };
  if (result.threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(result.threads));
    for (std::int32_t t = 0; t < result.threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  result.wall_seconds =  // ccs-lint: allow(wall-clock)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

std::size_t ExperimentResult::failed_cells() const {
  std::size_t n = 0;
  for (const CellResult& c : cells) {
    if (!c.ok) ++n;
  }
  return n;
}

void ExperimentResult::write_csv(std::ostream& os) const {
  os << "workload,cache_words,block_words,strategy,kind,arrival,tenants,workers,"
        "placement,t_multiplier,ok,"
        "resolved,components,batch_t,bandwidth,predicted_misses_per_input,schedule,"
        "buffer_words,accesses,misses,writebacks,firings,source_firings,sink_firings,"
        "state_misses,channel_misses,io_misses,misses_per_input,misses_per_output,"
        "server_steps,cluster_makespan,cluster_migrations,cluster_auto_migrations,"
        "cluster_peak_live,error,"
        "cost_model,cluster_p50,cluster_p95,cluster_p99,cluster_slo_ok\n";
  for (const CellResult& c : cells) {
    os << csv_escape(c.workload) << ',' << c.cache.capacity_words << ','
       << c.cache.block_words << ',' << csv_escape(c.strategy) << ','
       << (c.is_cluster  ? "cluster"
           : c.is_online ? "online"
           : c.is_baseline ? "baseline"
                           : "partitioned")
       << ',' << csv_escape(c.arrival) << ',' << c.tenants << ',' << c.workers << ','
       << csv_escape(c.placement) << ',' << c.t_multiplier << ','
       << (c.ok ? 1 : 0) << ',' << csv_escape(c.resolved_strategy) << ',' << c.components
       << ',' << c.batch_t << ',' << fmt_double(c.bandwidth) << ','
       << fmt_double(c.predicted_misses_per_input) << ',' << csv_escape(c.schedule_name)
       << ',' << c.buffer_words << ',' << c.run.cache.accesses << ',' << c.run.cache.misses
       << ',' << c.run.cache.writebacks << ',' << c.run.firings << ','
       << c.run.source_firings << ',' << c.run.sink_firings << ',' << c.run.state_misses
       << ',' << c.run.channel_misses << ',' << c.run.io_misses << ','
       << fmt_double(c.misses_per_input) << ',' << fmt_double(c.misses_per_output) << ','
       << c.server_steps << ',' << c.cluster_makespan << ',' << c.cluster_migrations
       << ',' << c.cluster_auto_migrations << ',' << c.cluster_peak_live << ','
       << csv_escape(c.error) << ',' << csv_escape(c.cost_model) << ','
       << c.cluster_p50 << ',' << c.cluster_p95 << ',' << c.cluster_p99 << ','
       << c.cluster_slo_ok << '\n';
  }
}

void ExperimentResult::write_json(std::ostream& os) const {
  os << "{\n  \"threads\": " << threads << ",\n  \"wall_seconds\": "
     << fmt_double(wall_seconds) << ",\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"workload\": \"" << json_escape(c.workload) << "\""
       << ", \"cache_words\": " << c.cache.capacity_words
       << ", \"block_words\": " << c.cache.block_words
       << ", \"strategy\": \"" << json_escape(c.strategy) << "\""
       << ", \"kind\": \""
       << (c.is_cluster  ? "cluster"
           : c.is_online ? "online"
           : c.is_baseline ? "baseline"
                           : "partitioned")
       << "\"";
    if (c.is_online || c.is_cluster) {
      os << ", \"arrival\": \"" << json_escape(c.arrival) << "\""
         << ", \"tenants\": " << c.tenants << ", \"server_steps\": " << c.server_steps;
    }
    if (c.is_cluster) {
      os << ", \"workers\": " << c.workers << ", \"placement\": \""
         << json_escape(c.placement) << "\""
         << ", \"cluster_makespan\": " << c.cluster_makespan
         << ", \"cluster_migrations\": " << c.cluster_migrations
         << ", \"cluster_auto_migrations\": " << c.cluster_auto_migrations
         << ", \"cluster_peak_live\": " << c.cluster_peak_live
         << ", \"cost_model\": \"" << json_escape(c.cost_model) << "\""
         << ", \"cluster_p50\": " << c.cluster_p50
         << ", \"cluster_p95\": " << c.cluster_p95
         << ", \"cluster_p99\": " << c.cluster_p99
         << ", \"cluster_slo_ok\": " << c.cluster_slo_ok;
    }
    os << ", \"t_multiplier\": " << c.t_multiplier
       << ", \"ok\": " << (c.ok ? "true" : "false");
    if (c.ok) {
      os << ", \"resolved\": \"" << json_escape(c.resolved_strategy) << "\""
         << ", \"components\": " << c.components << ", \"batch_t\": " << c.batch_t
         << ", \"bandwidth\": " << fmt_double(c.bandwidth)
         << ", \"predicted_misses_per_input\": " << fmt_double(c.predicted_misses_per_input)
         << ", \"schedule\": \"" << json_escape(c.schedule_name) << "\""
         << ", \"buffer_words\": " << c.buffer_words
         << ", \"accesses\": " << c.run.cache.accesses
         << ", \"misses\": " << c.run.cache.misses
         << ", \"writebacks\": " << c.run.cache.writebacks
         << ", \"firings\": " << c.run.firings
         << ", \"source_firings\": " << c.run.source_firings
         << ", \"sink_firings\": " << c.run.sink_firings
         << ", \"state_misses\": " << c.run.state_misses
         << ", \"channel_misses\": " << c.run.channel_misses
         << ", \"io_misses\": " << c.run.io_misses
         << ", \"misses_per_input\": " << fmt_double(c.misses_per_input)
         << ", \"misses_per_output\": " << fmt_double(c.misses_per_output);
    } else {
      os << ", \"error\": \"" << json_escape(c.error) << "\"";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace ccs::core
