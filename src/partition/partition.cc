#include "partition/partition.h"

#include <algorithm>

#include "sdf/topology.h"
#include "util/contract.h"
#include "util/error.h"

namespace ccs::partition {

Partition Partition::from_components(const sdf::SdfGraph& g,
                                     const std::vector<std::vector<sdf::NodeId>>& comps) {
  Partition p;
  p.num_components = static_cast<std::int32_t>(comps.size());
  p.assignment.assign(static_cast<std::size_t>(g.node_count()), -1);
  for (std::size_t c = 0; c < comps.size(); ++c) {
    if (comps[c].empty()) throw Error("component " + std::to_string(c) + " is empty");
    for (const sdf::NodeId v : comps[c]) {
      if (v < 0 || v >= g.node_count()) throw Error("component node id out of range");
      if (p.assignment[static_cast<std::size_t>(v)] != -1) {
        throw Error("node '" + g.node(v).name + "' assigned to two components");
      }
      p.assignment[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(c);
    }
  }
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    if (p.assignment[static_cast<std::size_t>(v)] == -1) {
      throw Error("node '" + g.node(v).name + "' not covered by any component");
    }
  }
  return p;
}

Partition Partition::singletons(const sdf::SdfGraph& g) {
  Partition p;
  p.num_components = g.node_count();
  p.assignment.resize(static_cast<std::size_t>(g.node_count()));
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    p.assignment[static_cast<std::size_t>(v)] = v;
  }
  return p;
}

Partition Partition::whole(const sdf::SdfGraph& g) {
  Partition p;
  p.num_components = 1;
  p.assignment.assign(static_cast<std::size_t>(g.node_count()), 0);
  return p;
}

std::vector<std::vector<sdf::NodeId>> Partition::components() const {
  std::vector<std::vector<sdf::NodeId>> comps(static_cast<std::size_t>(num_components));
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    comps[static_cast<std::size_t>(assignment[v])].push_back(static_cast<sdf::NodeId>(v));
  }
  return comps;
}

Rational bandwidth(const sdf::SdfGraph& g, const sdf::GainMap& gains, const Partition& p) {
  Rational total(0);
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    if (p.comp(edge.src) != p.comp(edge.dst)) total += gains.edge_gain(e);
  }
  return total;
}

std::vector<std::int64_t> component_states(const sdf::SdfGraph& g, const Partition& p) {
  std::vector<std::int64_t> states(static_cast<std::size_t>(p.num_components), 0);
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    states[static_cast<std::size_t>(p.comp(v))] += g.node(v).state;
  }
  return states;
}

std::int64_t max_component_state(const sdf::SdfGraph& g, const Partition& p) {
  const auto states = component_states(g, p);
  return states.empty() ? 0 : *std::max_element(states.begin(), states.end());
}

std::vector<std::int32_t> component_degrees(const sdf::SdfGraph& g, const Partition& p) {
  std::vector<std::int32_t> degrees(static_cast<std::size_t>(p.num_components), 0);
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    const std::int32_t cs = p.comp(edge.src);
    const std::int32_t cd = p.comp(edge.dst);
    if (cs != cd) {
      ++degrees[static_cast<std::size_t>(cs)];
      ++degrees[static_cast<std::size_t>(cd)];
    }
  }
  return degrees;
}

std::int32_t max_component_degree(const sdf::SdfGraph& g, const Partition& p) {
  const auto degrees = component_degrees(g, p);
  return degrees.empty() ? 0 : *std::max_element(degrees.begin(), degrees.end());
}

bool is_well_ordered(const sdf::SdfGraph& g, const Partition& p) {
  return sdf::contraction_is_acyclic(g, p.assignment, p.num_components);
}

bool is_bounded(const sdf::SdfGraph& g, const Partition& p, std::int64_t state_bound) {
  return max_component_state(g, p) <= state_bound;
}

std::vector<std::string> validate_partition(const sdf::SdfGraph& g, const Partition& p) {
  std::vector<std::string> problems;
  if (p.assignment.size() != static_cast<std::size_t>(g.node_count())) {
    problems.push_back("assignment size != node count");
    return problems;
  }
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(std::max(p.num_components, 1)), 0);
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    const std::int32_t c = p.comp(v);
    if (c < 0 || c >= p.num_components) {
      problems.push_back("node '" + g.node(v).name + "' has component id " +
                         std::to_string(c) + " outside [0, " +
                         std::to_string(p.num_components) + ")");
    } else {
      ++sizes[static_cast<std::size_t>(c)];
    }
  }
  for (std::int32_t c = 0; c < p.num_components; ++c) {
    if (sizes[static_cast<std::size_t>(c)] == 0) {
      problems.push_back("component " + std::to_string(c) + " is empty");
    }
  }
  return problems;
}

Partition renumber_topological(const sdf::SdfGraph& g, const Partition& p) {
  CCS_EXPECTS(is_well_ordered(g, p), "cannot topologically order a non-well-ordered partition");
  // Kahn's algorithm over the contracted dag, smallest old id first for
  // determinism.
  const auto cross = sdf::contract(g, p.assignment, p.num_components);
  std::vector<std::vector<std::int32_t>> adj(static_cast<std::size_t>(p.num_components));
  std::vector<std::int32_t> indegree(static_cast<std::size_t>(p.num_components), 0);
  for (const auto& ce : cross) {
    adj[static_cast<std::size_t>(ce.src_comp)].push_back(ce.dst_comp);
    ++indegree[static_cast<std::size_t>(ce.dst_comp)];
  }
  std::vector<std::int32_t> order;
  std::vector<std::int32_t> ready;
  for (std::int32_t c = p.num_components - 1; c >= 0; --c) {
    if (indegree[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
  }
  while (!ready.empty()) {
    std::sort(ready.rbegin(), ready.rend());
    const std::int32_t c = ready.back();
    ready.pop_back();
    order.push_back(c);
    for (const std::int32_t d : adj[static_cast<std::size_t>(c)]) {
      if (--indegree[static_cast<std::size_t>(d)] == 0) ready.push_back(d);
    }
  }
  CCS_CHECK(static_cast<std::int32_t>(order.size()) == p.num_components,
            "contracted graph must be acyclic");

  std::vector<std::int32_t> new_id(static_cast<std::size_t>(p.num_components));
  for (std::size_t i = 0; i < order.size(); ++i) {
    new_id[static_cast<std::size_t>(order[i])] = static_cast<std::int32_t>(i);
  }
  Partition out;
  out.num_components = p.num_components;
  out.assignment.resize(p.assignment.size());
  for (std::size_t v = 0; v < p.assignment.size(); ++v) {
    out.assignment[v] = new_id[static_cast<std::size_t>(p.assignment[v])];
  }
  return out;
}

PartitionQuality measure(const sdf::SdfGraph& g, const sdf::GainMap& gains,
                         const Partition& p) {
  PartitionQuality q;
  q.bandwidth = bandwidth(g, gains, p);
  q.max_state = max_component_state(g, p);
  q.max_degree = max_component_degree(g, p);
  q.num_components = p.num_components;
  q.well_ordered = is_well_ordered(g, p);
  return q;
}

}  // namespace ccs::partition
