// core::Planner -- the session-level planning API.
//
// A Planner is constructed once per (graph, options) pair: construction
// validates the graph against the paper's model assumptions and the cache
// geometry, and caches the gain/repetition analysis. Every subsequent call
// -- plan() with the configured or an explicit partitioner, plan_all() over
// every applicable registered strategy, compare() against the theoretical
// lower bound -- reuses that session state instead of re-deriving it.
// Partitioners are resolved by name through partition::Registry, so custom
// strategies registered by the application participate with no core changes.
//
//   using namespace ccs;
//   core::PlannerOptions opts;
//   opts.cache.capacity_words = 32 * 1024;
//   core::Planner planner(graph, opts);              // validates once
//   core::Plan plan = planner.plan();                // "auto" partitioner
//   core::Plan greedy = planner.plan("dag-greedy");  // any registry key
//   for (const auto& c : planner.compare())          // predicted vs bound
//     std::cout << c.partitioner << ": " << c.predicted_misses_per_input
//               << " (lower bound " << c.lower_bound_misses_per_input << ")\n";
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "iomodel/types.h"
#include "partition/partition.h"
#include "partition/registry.h"
#include "sdf/gain.h"
#include "sdf/graph.h"
#include "schedule/schedule.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/rational.h"

namespace ccs::core {

/// Planning knobs.
struct PlannerOptions {
  iomodel::CacheConfig cache;          ///< M (words) and B (words/block).
  double c_bound = 3.0;                ///< Components hold at most c*M state.
  std::string partitioner = "auto";    ///< partition::Registry key, or "auto"
                                       ///< (DP for pipelines, exact for dags
                                       ///< up to partition::kExactMaxNodes
                                       ///< nodes, refined greedy otherwise).
  std::int64_t t_multiplier = 1;       ///< Batch scaling beyond the legal minimum.
  std::uint64_t seed = 1;              ///< For randomized partitioners (anneal).
};

/// Everything the planner decided, plus its cost predictions.
struct Plan {
  partition::Partition partition;
  schedule::Schedule schedule;
  analysis::CostPrediction predicted;
  Rational partition_bandwidth;        ///< bandwidth(P) of the chosen partition.
  std::string partitioner_name;        ///< Registry key ("pipeline-dp", ...).
  std::int64_t batch_t = 0;            ///< Source firings per batch.
};

/// One row of Planner::compare(): a strategy's plan next to the graph's
/// schedule-independent lower bound (Theorems 3/7/10).
struct StrategyComparison {
  std::string partitioner;                     ///< Registry key.
  Plan plan;
  double predicted_misses_per_input = 0.0;     ///< Lemma 4/8 closed form.
  double lower_bound_misses_per_input = 0.0;   ///< (bw_LB / B); 0 if unavailable.
  bool has_lower_bound = false;                ///< Bound computed for this graph?
};

/// Planning session for one graph. Construction throws GraphError/RateError
/// for graphs outside the paper's model, MemoryError for a degenerate cache
/// geometry and Error for a c_bound validate_word_factor rejects; the graph
/// is copied so the session is self-contained (safe to hand to a
/// sweep-worker thread). Const member functions may be called concurrently:
/// the lazily cached lower bound is mutex-guarded.
class Planner {
 public:
  /// `registry` defaults to partition::Registry::global(); pass an isolated
  /// registry to control exactly which strategies a session can see. The
  /// registry must outlive the planner.
  Planner(sdf::SdfGraph graph, PlannerOptions options,
          const partition::Registry* registry = nullptr);

  const sdf::SdfGraph& graph() const noexcept { return graph_; }
  const PlannerOptions& options() const noexcept { return options_; }

  /// Plans with options().partitioner. Throws ccs::Error (listing valid
  /// keys) for an unknown name and when no c-bounded partition exists.
  Plan plan() const;

  /// Plans with an explicit strategy (any registry key, or "auto").
  Plan plan(const std::string& partitioner) const;

  /// Plans with every strategy applicable to this graph, in key order.
  /// Each row equals plan(key), but a strategy whose partition is identical
  /// to an earlier row's (same component count and assignment) shares that
  /// row's schedule build instead of generating the same schedule again.
  std::vector<Plan> plan_all() const;

  /// plan_all() folded against the lower bound: one row per applicable
  /// strategy, each with the Lemma 4/8 prediction and the Theorem 3/7/10
  /// bound (the bound is graph-level, computed once per session and shared
  /// by every row). Rows are sorted by predicted cost, best first.
  std::vector<StrategyComparison> compare() const;

  /// The registry key "auto" resolves to for this graph.
  std::string resolve_auto() const;

  /// The strategy context derived from the options (exposed so callers can
  /// probe Registry::applicable_keys with exactly the planner's view).
  partition::StrategyContext strategy_context() const;

 private:
  /// Schedule, batch, bandwidth and prediction for a strategy's partition:
  /// everything plan() and plan_all() derive once the partition is built.
  /// `feasible_buffers` is sdf::feasible_buffers(graph()), computed once per
  /// plan()/plan_all() call and shared by the schedule and the prediction.
  Plan finish_plan(partition::Partition partition, const std::string& name,
                   std::span<const std::int64_t> feasible_buffers) const;

  /// Lower-bound bandwidth (Theorems 3/7/10), computed once on demand.
  std::optional<Rational> lower_bound_bandwidth() const;

  sdf::SdfGraph graph_;
  PlannerOptions options_;
  const partition::Registry* registry_;
  sdf::GainMap gains_;  ///< Cached across every plan/compare call.

  // Lazily cached lower bound (strategy-independent, potentially
  // expensive), guarded so concurrent compare() calls on a const session
  // do not race.
  mutable Mutex lower_bound_mutex_;
  mutable bool lower_bound_computed_ CCS_GUARDED_BY(lower_bound_mutex_) = false;
  mutable std::optional<Rational> lower_bound_bw_ CCS_GUARDED_BY(lower_bound_mutex_);
};

/// Multi-line human-readable report of a plan: partition composition,
/// batch parameters, buffer budget, predicted cost, and the assumptions
/// the plan relies on. Intended for logs and tooling output.
std::string explain(const sdf::SdfGraph& g, const Plan& plan);

/// Rejects degenerate cache geometries (non-positive block, cache smaller
/// than one block) with a recoverable MemoryError. Every facade entry point
/// taking a caller-supplied geometry runs this before touching a simulator.
void validate_cache_geometry(const iomodel::CacheConfig& cache);

/// Rejects a factor that cannot scale `words` words to a word count:
/// `factor` must be finite and > 0, and factor * words must lie in
/// [1, 2^63). Throws ccs::Error naming the knob (`what`) otherwise. The
/// Planner runs it on c_bound (so the state bound is at least one word),
/// core::Experiment on sim_capacity_factor.
void validate_word_factor(double factor, std::int64_t words, const std::string& what);

}  // namespace ccs::core
