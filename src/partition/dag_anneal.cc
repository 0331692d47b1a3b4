#include "partition/dag_anneal.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "sdf/gain.h"
#include "sdf/topology.h"
#include "util/contract.h"

namespace ccs::partition {

namespace {

Partition compact(const Partition& p) {
  std::vector<std::int32_t> remap(static_cast<std::size_t>(p.num_components), -1);
  std::int32_t next = 0;
  for (const std::int32_t c : p.assignment) {
    auto& slot = remap[static_cast<std::size_t>(c)];
    if (slot == -1) slot = next++;
  }
  Partition out;
  out.num_components = next;
  out.assignment.reserve(p.assignment.size());
  for (const std::int32_t c : p.assignment) {
    out.assignment.push_back(remap[static_cast<std::size_t>(c)]);
  }
  return out;
}

}  // namespace

Partition anneal_partition(const sdf::SdfGraph& g, const Partition& start,
                           const AnnealOptions& options) {
  CCS_EXPECTS(options.state_bound > 0, "state bound must be positive");
  CCS_EXPECTS(is_well_ordered(g, start), "annealing requires a well-ordered start");
  CCS_EXPECTS(is_bounded(g, start, options.state_bound), "start exceeds the bound");

  const sdf::GainMap gains(g);
  // Each module's neighbour list, built once: (other end, edge gain) over
  // its in-edges, then its out-edges. Candidate targets and the bandwidth
  // delta walk it in that order; both feed the RNG draws and the accepted
  // moves, which tests/golden/partitioned_schedules.txt pins bit for bit.
  struct Neighbour {
    sdf::NodeId other;
    double gain;
  };
  std::vector<double> edge_gain(static_cast<std::size_t>(g.edge_count()));
  double mean_gain = 0;
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    edge_gain[static_cast<std::size_t>(e)] = gains.edge_gain(e).to_double();
    mean_gain += edge_gain[static_cast<std::size_t>(e)];
  }
  mean_gain = g.edge_count() > 0 ? mean_gain / static_cast<double>(g.edge_count()) : 1.0;
  std::vector<Neighbour> neighbours;
  neighbours.reserve(2 * static_cast<std::size_t>(g.edge_count()));
  std::vector<std::size_t> first(static_cast<std::size_t>(g.node_count()) + 1);
  std::size_t max_degree = 0;
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    first[static_cast<std::size_t>(v)] = neighbours.size();
    for (const sdf::EdgeId e : g.in_edges(v)) {
      neighbours.push_back({g.edge(e).src, edge_gain[static_cast<std::size_t>(e)]});
    }
    for (const sdf::EdgeId e : g.out_edges(v)) {
      neighbours.push_back({g.edge(e).dst, edge_gain[static_cast<std::size_t>(e)]});
    }
    max_degree = std::max(max_degree, neighbours.size() - first[static_cast<std::size_t>(v)]);
  }
  first.back() = neighbours.size();

  Rng rng(options.seed);
  Partition cur = start;
  auto states = component_states(g, cur);
  states.reserve(static_cast<std::size_t>(g.node_count()));
  double cur_bw = bandwidth(g, gains, cur).to_double();
  Partition best = cur;
  double best_bw = cur_bw;
  double temp = options.initial_temp * mean_gain;

  // Every buffer the loop touches is sized here, so a step allocates nothing.
  std::vector<std::int32_t> targets;
  targets.reserve(max_degree + 1);
  sdf::ContractionLabels labels(g, cur.assignment, cur.num_components);
  for (std::int32_t it = 0; it < options.iterations; ++it, temp *= options.cooling) {
    const auto v = static_cast<sdf::NodeId>(rng.uniform(0, g.node_count() - 1));
    const std::int32_t from = cur.comp(v);
    const std::span<const Neighbour> around(
        neighbours.data() + first[static_cast<std::size_t>(v)],
        first[static_cast<std::size_t>(v) + 1] - first[static_cast<std::size_t>(v)]);
    // Candidate targets: neighbor components, or a fresh singleton (which
    // only makes sense if v is not already alone).
    targets.clear();
    for (const Neighbour& n : around) targets.push_back(cur.comp(n.other));
    if (states[static_cast<std::size_t>(from)] > g.node(v).state) {
      targets.push_back(cur.num_components);
    }
    if (targets.empty()) continue;
    const std::int32_t target = rng.pick(targets);
    if (target == from) continue;
    const bool fresh = target == cur.num_components;
    if (!fresh && states[static_cast<std::size_t>(target)] + g.node(v).state >
                      options.state_bound) {
      continue;
    }
    // Bandwidth delta of the move: an edge to `other` stops being cross if
    // `other` sits in the target, and becomes cross if it sat with v.
    double delta = 0;
    for (const Neighbour& n : around) {
      const std::int32_t oc = cur.comp(n.other);
      const bool was_cross = oc != from;
      const bool now_cross = oc != target;
      if (was_cross && !now_cross) delta -= n.gain;
      if (!was_cross && now_cross) delta += n.gain;
    }
    if (delta > 0 && (temp <= 0 || rng.uniform01() >= std::exp(-delta / temp))) {
      continue;  // uphill move rejected
    }
    // Make the move in place; undo it if it breaks well-ordering.
    cur.assignment[static_cast<std::size_t>(v)] = target;
    if (fresh) ++cur.num_components;
    if (!labels.accept(cur.assignment, cur.num_components, v, fresh)) {
      cur.assignment[static_cast<std::size_t>(v)] = from;
      if (fresh) --cur.num_components;
      continue;
    }

    states[static_cast<std::size_t>(from)] -= g.node(v).state;
    if (fresh) states.push_back(g.node(v).state);
    else states[static_cast<std::size_t>(target)] += g.node(v).state;
    cur_bw += delta;
    if (cur_bw < best_bw - 1e-12) {
      best = cur;
      best_bw = cur_bw;
    }
  }

  best = compact(best);
  CCS_ENSURES(is_well_ordered(g, best), "annealing must preserve well-ordering");
  CCS_ENSURES(is_bounded(g, best, options.state_bound), "annealing must preserve the bound");
  return best;
}

}  // namespace ccs::partition
