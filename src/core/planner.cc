#include "core/planner.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/lower_bound.h"
#include "schedule/partitioned.h"
#include "sdf/min_buffer.h"
#include "sdf/validate.h"
#include "util/error.h"

namespace ccs::core {

void validate_cache_geometry(const iomodel::CacheConfig& cache) {
  if (cache.block_words <= 0) {
    throw MemoryError("cache block size must be positive");
  }
  if (cache.capacity_words < cache.block_words) {
    throw MemoryError("cache must hold at least one block (capacity " +
                      std::to_string(cache.capacity_words) + " words, block " +
                      std::to_string(cache.block_words) + " words)");
  }
}

void validate_word_factor(double factor, std::int64_t words, const std::string& what) {
  // 0x1p63 is 2^63, one past int64's maximum; NaN fails every comparison.
  const double scaled = factor * static_cast<double>(words);
  if (!(factor > 0 && scaled >= 1 && scaled < 0x1p63)) {
    std::ostringstream msg;
    msg << what << " must be a finite number > 0 that scales " << words
        << " words to between 1 and 2^63 - 1 words (got " << factor << ")";
    throw Error(msg.str());
  }
}

namespace {

// Runs the session's one-time validation (cache geometry, c_bound, then the
// paper's model assumptions) and hands the graph on to the GainMap member,
// so a Planner that constructed successfully needs no further checks.
const sdf::SdfGraph& validate_session(const sdf::SdfGraph& g, const PlannerOptions& options) {
  validate_cache_geometry(options.cache);
  validate_word_factor(options.c_bound, options.cache.capacity_words, "c_bound");
  sdf::ValidationOptions validation;
  validation.max_module_state = options.cache.capacity_words;
  sdf::validate_or_throw(g, validation);
  return g;
}

}  // namespace

Planner::Planner(sdf::SdfGraph graph, PlannerOptions options,
                 const partition::Registry* registry)
    : graph_(std::move(graph)),
      options_(std::move(options)),
      registry_(registry != nullptr ? registry : &partition::Registry::global()),
      gains_(validate_session(graph_, options_)) {}

partition::StrategyContext Planner::strategy_context() const {
  partition::StrategyContext ctx;
  ctx.cache_words = options_.cache.capacity_words;
  ctx.state_bound = static_cast<std::int64_t>(
      options_.c_bound * static_cast<double>(options_.cache.capacity_words));
  ctx.seed = options_.seed;
  return ctx;
}

std::string Planner::resolve_auto() const {
  if (graph_.is_pipeline()) return "pipeline-dp";
  if (graph_.node_count() <= partition::kExactMaxNodes) return "exact";
  return "dag-refined";
}

Plan Planner::plan() const { return plan(options_.partitioner); }

Plan Planner::plan(const std::string& partitioner) const {
  const std::string name = partitioner == "auto" ? resolve_auto() : partitioner;
  return finish_plan(registry_->build(name, graph_, strategy_context()), name,
                     sdf::feasible_buffers(graph_));
}

Plan Planner::finish_plan(partition::Partition partition, const std::string& name,
                          std::span<const std::int64_t> feasible_buffers) const {
  Plan out;
  out.partition = std::move(partition);
  out.partitioner_name = name;

  schedule::PartitionedOptions sched;
  sched.m = options_.cache.capacity_words;
  sched.t_multiplier = options_.t_multiplier;
  out.batch_t = schedule::compute_batch_t(graph_, sched);
  out.schedule = schedule::partitioned_schedule(graph_, out.partition, sched, feasible_buffers);
  out.schedule.name = "partitioned/" + name;

  out.partition_bandwidth = partition::bandwidth(graph_, gains_, out.partition);
  out.predicted = analysis::predict_partitioned_cost(graph_, out.partition, out.batch_t,
                                                     options_.cache.block_words,
                                                     feasible_buffers);
  return out;
}

std::vector<Plan> Planner::plan_all() const {
  const partition::StrategyContext ctx = strategy_context();
  const std::vector<std::int64_t> feasible_buffers = sdf::feasible_buffers(graph_);
  std::vector<Plan> out;
  for (const std::string& name : registry_->applicable_keys(graph_, ctx)) {
    partition::Partition partition = registry_->build(name, graph_, ctx);
    // Everything past the partition is a pure function of (graph, partition,
    // options), so a strategy that returned an earlier row's exact partition
    // shares that row's schedule build and only takes its own name.
    const auto same = std::find_if(out.begin(), out.end(), [&](const Plan& earlier) {
      return earlier.partition.num_components == partition.num_components &&
             earlier.partition.assignment == partition.assignment;
    });
    if (same == out.end()) {
      out.push_back(finish_plan(std::move(partition), name, feasible_buffers));
      continue;
    }
    Plan shared = *same;
    shared.partitioner_name = name;
    shared.schedule.name = "partitioned/" + name;
    out.push_back(std::move(shared));
  }
  return out;
}

std::optional<Rational> Planner::lower_bound_bandwidth() const {
  const MutexLock lock(lower_bound_mutex_);
  if (!lower_bound_computed_) {
    // Theorem 3 for pipelines / Theorems 7 and 10 for dags, both expressed
    // as a minimum bandwidth: every schedule pays Omega((T/B) * bw). For
    // pipelines the DP is polynomial; for dags the exact solver bails out
    // (nullopt) above the node budget rather than going exponential.
    lower_bound_bw_ = analysis::dag_min_bandwidth_3m(graph_, options_.cache.capacity_words,
                                                     partition::kExactMaxNodes);
    lower_bound_computed_ = true;
  }
  return lower_bound_bw_;
}

std::vector<StrategyComparison> Planner::compare() const {
  const std::optional<Rational> bound = lower_bound_bandwidth();
  std::vector<StrategyComparison> out;
  std::vector<Plan> plans = plan_all();
  for (Plan& plan : plans) {
    StrategyComparison row;
    row.partitioner = plan.partitioner_name;
    row.predicted_misses_per_input = plan.predicted.misses_per_input;
    if (bound.has_value()) {
      row.has_lower_bound = true;
      // Per input: (T/B * bw) / T = bw / B.
      row.lower_bound_misses_per_input =
          bound->to_double() / static_cast<double>(options_.cache.block_words);
    }
    row.plan = std::move(plan);
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const StrategyComparison& a, const StrategyComparison& b) {
    return a.predicted_misses_per_input < b.predicted_misses_per_input ||
           (a.predicted_misses_per_input == b.predicted_misses_per_input &&
            a.partitioner < b.partitioner);
  });
  return out;
}

std::string explain(const sdf::SdfGraph& g, const Plan& plan) {
  std::ostringstream os;
  os << "plan for " << g << "\n"
     << "  partitioner : " << plan.partitioner_name << "\n"
     << "  components  : " << plan.partition.num_components << " (bandwidth "
     << plan.partition_bandwidth << ")\n"
     << "  batch T     : " << plan.batch_t << " source firings per component load\n"
     << "  period      : " << plan.schedule.period.size() << " firings, "
     << plan.schedule.outputs_per_period << " outputs\n"
     << "  buffers     : " << plan.schedule.total_buffer_words() << " words total\n"
     << "  predicted   : " << plan.predicted.misses_per_input
     << " misses/input (state " << plan.predicted.state_term << " + buffers "
     << plan.predicted.buffer_term << " + cross " << plan.predicted.cross_term
     << " per batch)\n";
  const auto states = partition::component_states(g, plan.partition);
  const auto comps = plan.partition.components();
  for (std::size_t c = 0; c < comps.size(); ++c) {
    os << "  V" << c << " (" << states[c] << " words):";
    for (const sdf::NodeId v : comps[c]) os << " " << g.node(v).name;
    os << "\n";
  }
  return os.str();
}

}  // namespace ccs::core
