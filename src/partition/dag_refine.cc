#include "partition/dag_refine.h"

#include <algorithm>
#include <set>

#include "sdf/gain.h"
#include "util/contract.h"

namespace ccs::partition {

namespace {

/// Bandwidth change if node v moves from its component to `target`:
/// an incident edge stops being a cross edge when the move unifies its
/// endpoints, and starts being one when it separates them.
Rational move_delta(const sdf::SdfGraph& g, const sdf::GainMap& gains, const Partition& p,
                    sdf::NodeId v, std::int32_t target) {
  Rational delta(0);
  const std::int32_t from = p.comp(v);
  auto edge_delta = [&](sdf::EdgeId e, sdf::NodeId other) {
    const std::int32_t oc = p.comp(other);
    const bool was_cross = oc != from;
    const bool now_cross = oc != target;
    if (was_cross && !now_cross) delta -= gains.edge_gain(e);
    if (!was_cross && now_cross) delta += gains.edge_gain(e);
  };
  for (const sdf::EdgeId e : g.in_edges(v)) edge_delta(e, g.edge(e).src);
  for (const sdf::EdgeId e : g.out_edges(v)) edge_delta(e, g.edge(e).dst);
  return delta;
}

/// Drops empty components, renumbering densely.
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

Partition refine_partition(const sdf::SdfGraph& g, const Partition& p,
                           const RefineOptions& options) {
  CCS_EXPECTS(options.state_bound > 0, "state bound must be positive");
  CCS_EXPECTS(is_well_ordered(g, p), "refinement requires a well-ordered start");
  CCS_EXPECTS(is_bounded(g, p, options.state_bound), "start partition exceeds the bound");

  const sdf::GainMap gains(g);
  Partition cur = p;
  auto states = component_states(g, cur);

  for (std::int32_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
      const std::int32_t from = cur.comp(v);
      // Candidate targets: components of neighbors (plus a fresh singleton
      // if allowed). Moving elsewhere can only add cross edges.
      std::set<std::int32_t> targets;
      for (const sdf::EdgeId e : g.in_edges(v)) targets.insert(cur.comp(g.edge(e).src));
      for (const sdf::EdgeId e : g.out_edges(v)) targets.insert(cur.comp(g.edge(e).dst));
      targets.erase(from);
      if (options.allow_new_components &&
          states[static_cast<std::size_t>(from)] > g.node(v).state) {
        targets.insert(cur.num_components);  // sentinel: fresh component
      }

      for (const std::int32_t target : targets) {
        const bool fresh = target == cur.num_components;
        if (!fresh && states[static_cast<std::size_t>(target)] + g.node(v).state >
                          options.state_bound) {
          continue;
        }
        const Rational delta = move_delta(g, gains, cur, v, target);
        if (!(delta < Rational(0))) continue;

        // Tentatively apply, then verify well-ordering of the contraction.
        Partition trial = cur;
        trial.assignment[static_cast<std::size_t>(v)] = target;
        if (fresh) ++trial.num_components;
        if (!is_well_ordered(g, trial)) continue;

        states[static_cast<std::size_t>(from)] -= g.node(v).state;
        if (fresh) {
          states.push_back(g.node(v).state);
        } else {
          states[static_cast<std::size_t>(target)] += g.node(v).state;
        }
        cur = std::move(trial);
        improved = true;
        break;  // re-enumerate targets for the next node against new state
      }
    }
    if (!improved) break;
  }

  cur = compact(cur);
  CCS_ENSURES(is_well_ordered(g, cur), "refinement must preserve well-ordering");
  CCS_ENSURES(is_bounded(g, cur, options.state_bound), "refinement must preserve the bound");
  return cur;
}

}  // namespace ccs::partition
