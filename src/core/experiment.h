// core::Experiment -- the declarative scenario-sweep driver.
//
// The paper's results are sweeps: miss rates across cache sizes,
// partitioners, and benchmark graphs (Figs. 6-9). An Experiment takes that
// grid as data -- workloads x cache geometries x partitioners x batch
// multipliers, all addressed through the registries -- and executes every
// cell on a thread pool, producing a structured result with CSV/JSON
// emission that reproduces a paper table in one call.
//
//   core::SweepSpec spec;
//   spec.workloads = {"FMRadio", "DES"};
//   spec.caches = {{256, 8}, {512, 8}, {1024, 8}};
//   spec.partitioners = {"auto", "dag-greedy", "dag-refined", "agglomerative"};
//   spec.baselines = {"naive", "scaled"};
//   core::ExperimentResult result = core::Experiment(spec).run(/*threads=*/8);
//   result.write_csv(std::cout);
//
// Determinism: cells are enumerated in a fixed grid order and every cell is
// hermetic -- its own graph instance, planner, engine, and cache; no shared
// mutable state -- so the counters are bit-identical no matter how many
// threads execute the sweep (a property the tests assert). A cell that
// fails (unknown key, inapplicable strategy, no bounded partition) records
// its error string instead of aborting the sweep.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/planner.h"
#include "iomodel/types.h"
#include "partition/registry.h"
#include "runtime/run_result.h"
#include "schedule/registry.h"
#include "workloads/arrivals.h"
#include "workloads/registry.h"

namespace ccs::core {

/// The online-serving slice of a sweep: arrival patterns x tenant counts,
/// each cell a multi-tenant scenario on a 1-worker, no-LLC core::Cluster
/// (N identical tenants of the workload on one shared cache, each on the
/// "auto" online policy, fed by the pattern for `ticks` ticks, then
/// drained). Empty `arrivals` disables online cells.
struct OnlineSweep {
  std::vector<std::string> arrivals;        ///< workloads::ArrivalRegistry keys.
  std::vector<std::int32_t> tenant_counts{1};
  std::string tenant_policy = "round-robin";  ///< ClusterOptions::tenant_policy.
  std::int64_t ticks = 128;                   ///< Pushes per tenant.
};

/// The multicore slice of a sweep: arrival patterns x tenant counts x
/// worker counts x placement policies, each cell a core::Cluster scenario
/// (N identical tenants of the workload on the "auto" online policy,
/// sharded over W workers, fed by the pattern for `ticks` ticks in
/// deterministic virtual time with a rebalance() at every tick boundary,
/// then drained). Empty `arrivals` disables cluster cells.
struct ClusterSweep {
  std::vector<std::string> arrivals;          ///< workloads::ArrivalRegistry keys.
  std::vector<std::int32_t> tenant_counts{2};
  std::vector<std::int32_t> worker_counts{2};
  std::vector<std::string> placements{"round-robin"};  ///< PlacementRegistry keys.

  /// Shared-LLC capacity as a multiple of the (augmented) per-worker L1;
  /// 0 runs the workers on independent flat caches. Experiment::run rejects
  /// a factor whose LLC does not fit in int64.
  std::int64_t llc_factor = 8;

  /// Shared-LLC lock stripes for every cluster cell: a power of two >= 1.
  /// No effect when llc_factor == 0. See WorkerPoolOptions.
  std::int32_t llc_shards = 1;

  std::int64_t ticks = 128;                   ///< Pushes per tenant.

  /// Latency/SLO axis: cost models to sweep (latency::CostModelRegistry
  /// keys; empty = {"uniform"}, which keeps every legacy counter
  /// bit-identical) and an optional per-step p99 target in modeled cycles
  /// (0 = no SLO; attainment is then trivially all tenants).
  std::vector<std::string> cost_models;
  std::int64_t slo_p99 = 0;

  /// Churn lifecycle axis: 0 (the default) keeps the steady tick loop
  /// above. > 0 replaces it -- every cluster cell drives a
  /// workloads::churn_trace of that many logical sessions (open / bursty
  /// push / close, at most churn_max_live open at once), exercising
  /// admission control and -- with `swap` -- the idle-session swap tier.
  /// Each session gets workloads::ChurnOptions' default bursts.
  /// `tenant_counts` is ignored for churn cells (the trace decides).
  std::int64_t churn_sessions = 0;
  std::int64_t churn_max_live = 8;    ///< Concurrent-open bound of the trace.

  /// Lifecycle knobs forwarded to every cluster cell's ClusterOptions
  /// (meaningful with or without churn).
  std::string admission = "unbounded";  ///< session::AdmissionRegistry key.
  std::int64_t max_live_sessions = 0;   ///< Budget for "bounded-live"; 0 = no limit.
  bool swap = false;                    ///< Enable the idle-session swap tier.
  std::int64_t band_words = std::int64_t{1} << 36;  ///< Per-session address band.
};

/// The sweep grid, by registry keys. Cells are enumerated workload-major:
/// for each workload, for each cache, every partitioner at every
/// t_multiplier, then every baseline scheduler (baselines have no batch
/// parameter, so they run once per cache), then every online cell (arrival
/// pattern x tenant count), then every cluster cell (arrival pattern x
/// tenant count x worker count x placement).
struct SweepSpec {
  std::vector<std::string> workloads;      ///< workloads::Registry keys.
  std::vector<iomodel::CacheConfig> caches;
  std::vector<std::string> partitioners;   ///< partition::Registry keys or "auto".
  std::vector<std::string> baselines;      ///< schedule::Registry keys (optional).
  OnlineSweep online;                      ///< Online-serving cells (optional).
  ClusterSweep cluster;                    ///< Multicore cluster cells (optional).
  std::vector<std::int64_t> t_multipliers{1};

  double c_bound = 3.0;                ///< Planner state bound (c * M).
  std::uint64_t seed = 1;              ///< For randomized partitioners.

  /// Simulate on sim_capacity_factor * M (the paper's constant-factor
  /// memory augmentation; Theorem 5 regime). 1.0 measures at M itself.
  /// Experiment::run rejects a factor validate_word_factor rejects.
  double sim_capacity_factor = 4.0;

  /// Sink firings per batch measurement (>= 1 whenever the spec lists
  /// partitioners or baselines; serving cells run their arrival patterns).
  std::int64_t target_outputs = 1024;

  /// Measurements per cell (>= 1). Each repetition of a batch cell is one
  /// core::simulate on a fresh cache (a serving cell rebuilds its Cluster);
  /// all repetitions must agree counter-for-counter or the cell is marked
  /// failed (a tripwire for non-determinism in strategies or the runtime).
  std::int32_t repetitions = 1;
};

/// One evaluated grid cell. Coordinate fields are always filled; result
/// fields only when ok.
struct CellResult {
  // -- coordinates --
  std::string workload;
  iomodel::CacheConfig cache;
  std::string strategy;             ///< Partitioner key or baseline scheduler key.
  bool is_baseline = false;         ///< True: strategy names a baseline scheduler.
  bool is_online = false;           ///< True: an online multi-tenant serving cell.
  bool is_cluster = false;          ///< True: a multicore cluster cell.
  std::string arrival;              ///< Arrival-pattern key (online/cluster cells).
  std::int32_t tenants = 0;         ///< Tenant count (online/cluster cells).
  std::int32_t workers = 0;         ///< Worker count (cluster cells only).
  std::string placement;            ///< Placement key (cluster cells only).
  std::string cost_model;           ///< Latency cost model (cluster cells only).
  std::int64_t t_multiplier = 1;    ///< Always 1 for baselines and online cells.

  // -- outcome --
  bool ok = false;
  std::string error;                ///< Why the cell failed (ok == false).

  // -- plan statistics (partitioner cells only) --
  std::string resolved_strategy;    ///< "auto" resolved to this key.
  std::int32_t components = 0;
  std::int64_t batch_t = 0;
  double bandwidth = 0.0;           ///< Partition bandwidth (as double).
  double predicted_misses_per_input = 0.0;

  // -- measurement --
  std::string schedule_name;
  std::int64_t buffer_words = 0;
  runtime::RunResult run;           ///< Accumulated counters (online cells:
                                    ///< the shared-cache aggregate).
  double misses_per_input = 0.0;
  double misses_per_output = 0.0;
  std::int64_t server_steps = 0;    ///< Multiplexing decisions (online/cluster cells).
  std::int64_t cluster_makespan = 0;    ///< Max worker busy time (cluster cells).
  std::int64_t cluster_migrations = 0;  ///< Sessions moved (cluster cells).
  std::int64_t cluster_auto_migrations = 0;  ///< Moves adaptive placement triggered.
  std::int64_t cluster_peak_live = 0;   ///< Peak resident sessions (cluster cells)
                                        ///< -- the O(live) claim, machine-checkable.
  std::int64_t cluster_p50 = 0;     ///< Aggregate per-step latency percentiles in
  std::int64_t cluster_p95 = 0;     ///< modeled cycles (cluster cells; 0 when the
  std::int64_t cluster_p99 = 0;     ///< histogram is empty).
  std::int32_t cluster_slo_ok = 0;  ///< Tenants whose p99 met ClusterSweep::slo_p99
                                    ///< (all tenants when no SLO is set).
};

/// Structured sweep output.
struct ExperimentResult {
  std::vector<CellResult> cells;  ///< Grid order (independent of threads).
  std::int32_t threads = 1;       ///< Pool size this result was produced with.
  double wall_seconds = 0.0;      ///< Sweep wall-clock (depends on threads).

  std::size_t failed_cells() const;

  /// One row per cell with a header line. Stable column set, suitable for
  /// plotting scripts; strings are quoted only when they need escaping.
  void write_csv(std::ostream& os) const;

  /// `{"threads": ..., "wall_seconds": ..., "cells": [{...}, ...]}`.
  void write_json(std::ostream& os) const;
};

/// A configured sweep. Construction only captures the spec and registries;
/// run() executes the grid.
class Experiment {
 public:
  /// Null registries default to the process-wide instances; pass isolated
  /// registries to pin exactly which strategies a sweep can see. The
  /// registries must outlive the experiment.
  explicit Experiment(SweepSpec spec,
                      const workloads::Registry* workload_registry = nullptr,
                      const partition::Registry* partitioner_registry = nullptr,
                      const schedule::Registry* scheduler_registry = nullptr,
                      const workloads::ArrivalRegistry* arrival_registry = nullptr);

  const SweepSpec& spec() const noexcept { return spec_; }

  /// Number of grid cells run() will evaluate.
  std::size_t cell_count() const;

  /// Executes every cell on `threads` pool workers (clamped to >= 1) and
  /// returns the filled grid. Cell failures are recorded per cell; this
  /// only throws for a structurally empty spec (no workloads, no caches, or
  /// no strategies at all).
  ExperimentResult run(std::int32_t threads = 1) const;

 private:
  /// The grid in cell order, each cell with only its coordinates filled.
  std::vector<CellResult> enumerate() const;
  /// Fills in the outcome of a cell enumerate() returned.
  void run_cell(CellResult& cell) const;
  /// Online and cluster cells: both serve tenants on a core::Cluster (one
  /// worker and no LLC for online cells).
  void run_serving_cell(CellResult& cell) const;

  SweepSpec spec_;
  const workloads::Registry* workloads_;
  const partition::Registry* partitioners_;
  const schedule::Registry* schedulers_;
  const workloads::ArrivalRegistry* arrivals_;
};

}  // namespace ccs::core
