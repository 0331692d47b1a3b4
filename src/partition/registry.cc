#include "partition/registry.h"

#include <algorithm>

#include "partition/agglomerative.h"
#include "partition/dag_anneal.h"
#include "partition/dag_exact.h"
#include "partition/dag_greedy.h"
#include "partition/dag_refine.h"
#include "partition/pipeline_dp.h"
#include "partition/pipeline_greedy.h"
#include "sdf/gain.h"
#include "util/error.h"

namespace ccs::partition {

namespace {

bool pipeline_only(const sdf::SdfGraph& g, const StrategyContext&) {
  return g.is_pipeline();
}

Partition refined_partition(const sdf::SdfGraph& g, const StrategyContext& ctx) {
  // Refine from both greedy starts and keep the lower-bandwidth result:
  // neither start dominates across graph families.
  RefineOptions refine;
  refine.state_bound = ctx.state_bound;
  const sdf::GainMap gains(g);
  auto a = refine_partition(g, dag_greedy_partition(g, ctx.state_bound), refine);
  auto b = refine_partition(g, dag_greedy_gain_partition(g, ctx.state_bound), refine);
  return bandwidth(g, gains, a) <= bandwidth(g, gains, b) ? std::move(a) : std::move(b);
}

}  // namespace

Registry& Registry::global() {
  static Registry instance;
  static const bool initialized = (register_builtin_partitioners(instance), true);
  (void)initialized;
  return instance;
}

std::vector<std::string> Registry::applicable_keys(const sdf::SdfGraph& g,
                                                   const StrategyContext& ctx) const {
  std::vector<std::string> out;
  for (const std::string& name : keys()) {
    const Strategy s = find(name);
    if (!s.applicable || s.applicable(g, ctx)) out.push_back(name);
  }
  return out;
}

Partition Registry::build(const std::string& name, const sdf::SdfGraph& g,
                          const StrategyContext& ctx) const {
  return find(name).build(g, ctx);
}

void register_builtin_partitioners(Registry& r) {
  r.add("pipeline-dp",
        {[](const sdf::SdfGraph& g, const StrategyContext& ctx) {
           return pipeline_optimal_partition(g, ctx.state_bound).partition;
         },
         pipeline_only, "optimal pipeline segmentation DP (poly time, pipelines only)"});
  r.add("pipeline-greedy",
        {[](const sdf::SdfGraph& g, const StrategyContext& ctx) {
           return pipeline_greedy_partition(g, ctx.cache_words).partition;
         },
         pipeline_only, "Theorem 5 accretion + gain-min cuts (pipelines only)"});
  r.add("dag-greedy",
        {[](const sdf::SdfGraph& g, const StrategyContext& ctx) {
           return dag_greedy_partition(g, ctx.state_bound);
         },
         nullptr, "topological first-fit packing"});
  r.add("dag-greedy-gain",
        {[](const sdf::SdfGraph& g, const StrategyContext& ctx) {
           return dag_greedy_gain_partition(g, ctx.state_bound);
         },
         nullptr, "first-fit packing with gain-aware boundary retreat"});
  r.add("dag-refined",
        {refined_partition, nullptr, "best greedy start + FM-style local search"});
  r.add("anneal",
        {[](const sdf::SdfGraph& g, const StrategyContext& ctx) {
           // Strategies are self-contained pure functions (so sweep cells
           // stay hermetic), which means this rebuilds the refined start
           // instead of sharing dag-refined's work when both run in one
           // plan_all(); annealing dominates the cost anyway. When the
           // anneal ends where it started, plan_all() reuses dag-refined's
           // schedule for it rather than building the same one again.
           AnnealOptions anneal;
           anneal.state_bound = ctx.state_bound;
           anneal.seed = ctx.seed;
           return anneal_partition(g, refined_partition(g, ctx), anneal);
         },
         nullptr, "simulated annealing from the refined start (seeded, deterministic)"});
  r.add("agglomerative",
        {[](const sdf::SdfGraph& g, const StrategyContext& ctx) {
           return agglomerative_partition(g, ctx.state_bound);
         },
         nullptr, "heavy-edge clustering + refinement"});
  r.add("exact",
        {[](const sdf::SdfGraph& g, const StrategyContext& ctx) {
           ExactOptions exact;
           exact.state_bound = ctx.state_bound;
           // An explicit request always attempts the graph; the budget gate
           // below only keeps plan_all()/auto from walking into exponential
           // blowups uninvited.
           exact.max_nodes = std::max(kExactMaxNodes, g.node_count());
           const auto result = dag_exact_partition(g, exact);
           if (!result.has_value()) {
             throw Error("exact partitioner exceeded its budget; use a heuristic partitioner");
           }
           return result->partition;
         },
         [](const sdf::SdfGraph& g, const StrategyContext&) {
           return g.node_count() <= kExactMaxNodes;
         },
         "exponential ideal DP (small graphs only)"});
}

}  // namespace ccs::partition
