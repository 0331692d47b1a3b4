#include "schedule/partitioned.h"

#include <algorithm>
#include <vector>

#include "sdf/gain.h"
#include "sdf/token_sim.h"
#include "sdf/topology.h"
#include "util/error.h"
#include "util/int_math.h"

namespace ccs::schedule {

std::int64_t compute_batch_t(const sdf::SdfGraph& g, const PartitionedOptions& options) {
  CCS_EXPECTS(options.m > 0 && options.t_multiplier > 0, "invalid batch options");
  const sdf::GainMap gains(g);

  // Divisibility: T * gain(e) must be an integer multiple of lcm(out, in).
  std::int64_t t0 = 1;
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    const Rational& ge = gains.edge_gain(e);
    const std::int64_t le = checked_lcm(edge.out_rate, edge.in_rate);
    const std::int64_t need =
        checked_mul(ge.den(), le) / gcd64(ge.num(), checked_mul(ge.den(), le));
    t0 = checked_lcm(t0, need);
  }
  // Magnitude: T * gain(e) >= m * multiplier on every edge.
  const std::int64_t floor_tokens = checked_mul(options.m, options.t_multiplier);
  std::int64_t t_min = 1;
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const Rational& ge = gains.edge_gain(e);
    const Rational needed = Rational(floor_tokens) / ge;
    t_min = std::max(t_min, needed.ceil());
  }
  return checked_mul(t0, ceil_div(t_min, t0));
}

Schedule partitioned_schedule(const sdf::SdfGraph& g, const partition::Partition& p,
                              const PartitionedOptions& options,
                              std::span<const std::int64_t> feasible_buffers) {
  const auto problems = partition::validate_partition(g, p);
  if (!problems.empty()) throw Error("invalid partition: " + problems.front());
  if (!partition::is_well_ordered(g, p)) {
    throw Error("partitioned scheduling requires a well-ordered partition");
  }
  const partition::Partition topo_p = partition::renumber_topological(g, p);
  const sdf::GainMap gains(g);
  const std::int64_t t = compute_batch_t(g, options);

  Schedule out;
  out.name = "partitioned";
  out.inputs_per_period = t;

  // Buffers: exact batch traffic on cross edges, minimal feasible inside.
  CCS_EXPECTS(feasible_buffers.size() == static_cast<std::size_t>(g.edge_count()),
              "one feasible buffer per edge required");
  out.buffer_caps.resize(static_cast<std::size_t>(g.edge_count()));
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    if (topo_p.comp(edge.src) != topo_p.comp(edge.dst)) {
      const Rational batch_tokens = gains.edge_gain(e) * Rational(t);
      CCS_CHECK(batch_tokens.is_integer(), "T was chosen to make batch traffic integral");
      out.buffer_caps[static_cast<std::size_t>(e)] = batch_tokens.num();
    } else {
      out.buffer_caps[static_cast<std::size_t>(e)] = feasible_buffers[static_cast<std::size_t>(e)];
    }
  }

  // Per-batch firing target of every module: T * gain(v).
  std::vector<std::int64_t> target(static_cast<std::size_t>(g.node_count()));
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    const Rational f = gains.node_gain(v) * Rational(t);
    CCS_CHECK(f.is_integer(), "T was chosen to make firing counts integral");
    target[static_cast<std::size_t>(v)] = f.num();
  }

  // Generate one batch: components in topological order; inside a component,
  // repeated topological sweeps with maximal batching until every member
  // reaches its target. Pre-stocked inputs + exact-capacity outputs mean a
  // sweep that stops short of a target indicates a real infeasibility (and
  // that no cross edge binds before the targets do).
  const auto comps = topo_p.components();
  const auto global_topo = sdf::topological_sort(g);
  sdf::TokenSim sim(g, out.buffer_caps);

  for (const auto& comp_nodes : comps) {
    // Sweep order = global topological order restricted to this component.
    std::vector<sdf::NodeId> order;
    order.reserve(comp_nodes.size());
    for (const sdf::NodeId v : global_topo) {
      if (topo_p.comp(v) == topo_p.comp(comp_nodes.front())) order.push_back(v);
    }
    sim.sweep(order, target, sdf::kUnbounded, out.period);
    for (const sdf::NodeId v : order) {
      if (sim.fired(v) < target[static_cast<std::size_t>(v)]) {
        throw DeadlockError("component could not complete its batch share");
      }
    }
  }
  CCS_ENSURES(sim.drained(), "a full batch must drain every channel");
  out.outputs_per_period = sim.fired(g.sinks().front());
  return out;
}

}  // namespace ccs::schedule
