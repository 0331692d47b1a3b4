// String-keyed partitioner registry.
//
// The planner used to hard-wire its partitioners into a closed enum; this
// registry replaces that with an open, name-addressed strategy table. The
// built-ins self-register under the names the experiment tables always used
// ("pipeline-dp", "dag-refined", ...) and callers add their own strategies
// with Registry::global().add(...) -- a custom partitioner becomes usable in
// PlannerOptions::partitioner, `--partitioner=` flags, and Experiment sweep
// specs with no core changes. Unknown names throw a recoverable ccs::Error
// that lists every valid key.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "partition/partition.h"
#include "sdf/graph.h"
#include "util/registry.h"

namespace ccs::partition {

/// Budget gate for exponential strategies: "auto" and plan_all() use the
/// exact partitioner (and the planner its exact lower bound) only on graphs
/// with at most this many nodes.
inline constexpr std::int32_t kExactMaxNodes = 20;

/// Everything a partitioner strategy may consult, derived from the planner's
/// options (state_bound = c_bound * cache_words).
struct StrategyContext {
  std::int64_t cache_words = 0;       ///< M (words).
  std::int64_t state_bound = 0;       ///< c * M: component state ceiling.
  std::uint64_t seed = 1;             ///< For randomized strategies (annealing).
};

/// A named partitioning strategy.
struct Strategy {
  /// Builds a well-ordered, bounded partition or throws a ccs::Error
  /// subclass (e.g. when no bounded partition exists or a budget is
  /// exceeded).
  std::function<Partition(const sdf::SdfGraph&, const StrategyContext&)> build;

  /// True iff the strategy makes sense for this graph (pipeline-only
  /// strategies, node budgets). Null means always applicable. plan_all()
  /// and compare() consult this; an *explicit* request by name always runs
  /// the strategy, which throws its own error if the graph is unsuitable.
  std::function<bool(const sdf::SdfGraph&, const StrategyContext&)> applicable;

  /// One-line description for --help style listings.
  std::string description;
};

/// String-keyed partitioner table. See util/registry.h for the shared
/// add/find/keys semantics (duplicate and unknown keys throw ccs::Error).
class Registry : public NamedRegistry<Strategy> {
 public:
  Registry() : NamedRegistry<Strategy>("partitioner") {}

  /// The process-wide registry, seeded with the built-ins on first use.
  static Registry& global();

  /// Keys of every strategy applicable to `g` under `ctx`, sorted.
  std::vector<std::string> applicable_keys(const sdf::SdfGraph& g,
                                           const StrategyContext& ctx) const;

  /// Looks up `name` and runs it. Throws ccs::Error (listing valid keys)
  /// for unknown names; propagates the strategy's own errors.
  Partition build(const std::string& name, const sdf::SdfGraph& g,
                  const StrategyContext& ctx) const;
};

/// Registers the built-in strategies into `r` (used by global(); exposed so
/// tests can build isolated registries): pipeline-dp, pipeline-greedy,
/// dag-greedy, dag-greedy-gain, dag-refined, anneal, agglomerative, exact.
void register_builtin_partitioners(Registry& r);

}  // namespace ccs::partition
