#include "sdf/topology.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/error.h"

namespace ccs::sdf {

std::vector<NodeId> topological_sort(const SdfGraph& g) {
  const std::int32_t n = g.node_count();
  std::vector<std::int32_t> indegree(static_cast<std::size_t>(n), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    ++indegree[static_cast<std::size_t>(g.edge(e).dst)];
  }
  // Min-heap on node id keeps the order deterministic.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const EdgeId e : g.out_edges(v)) {
      const NodeId w = g.edge(e).dst;
      if (--indegree[static_cast<std::size_t>(w)] == 0) ready.push(w);
    }
  }
  if (static_cast<std::int32_t>(order.size()) != n) {
    throw GraphError("graph contains a directed cycle");
  }
  return order;
}

bool is_acyclic(const SdfGraph& g) {
  try {
    (void)topological_sort(g);
    return true;
  } catch (const GraphError&) {
    return false;
  }
}

Reachability::Reachability(const SdfGraph& g) : n_(g.node_count()) {
  const auto words = static_cast<std::size_t>((n_ + 63) / 64);
  bits_.assign(static_cast<std::size_t>(n_), std::vector<std::uint64_t>(words, 0));
  const auto order = topological_sort(g);
  // Process in reverse topological order: successors' sets are complete.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId u = *it;
    auto& row = bits_[static_cast<std::size_t>(u)];
    for (const EdgeId e : g.out_edges(u)) {
      const NodeId w = g.edge(e).dst;
      row[static_cast<std::size_t>(w) >> 6] |= 1ULL << (static_cast<std::size_t>(w) & 63);
      const auto& succ = bits_[static_cast<std::size_t>(w)];
      for (std::size_t i = 0; i < words; ++i) row[i] |= succ[i];
    }
  }
}

std::vector<ContractedEdge> contract(const SdfGraph& g,
                                     const std::vector<std::int32_t>& assignment,
                                     std::int32_t num_components) {
  CCS_EXPECTS(static_cast<std::int32_t>(assignment.size()) == g.node_count(),
              "assignment size must equal node count");
  std::vector<ContractedEdge> cross;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    const std::int32_t cs = assignment[static_cast<std::size_t>(edge.src)];
    const std::int32_t cd = assignment[static_cast<std::size_t>(edge.dst)];
    CCS_EXPECTS(cs >= 0 && cs < num_components && cd >= 0 && cd < num_components,
                "component id out of range");
    if (cs != cd) cross.push_back(ContractedEdge{cs, cd, e});
  }
  return cross;
}

bool contraction_is_acyclic(const SdfGraph& g, const std::vector<std::int32_t>& assignment,
                            std::int32_t num_components) {
  ContractionScratch scratch;
  return contraction_is_acyclic(g, assignment, num_components, scratch);
}

bool contraction_is_acyclic(const SdfGraph& g, const std::vector<std::int32_t>& assignment,
                            std::int32_t num_components, ContractionScratch& scratch) {
  CCS_EXPECTS(static_cast<std::int32_t>(assignment.size()) == g.node_count(),
              "assignment size must equal node count");
  const auto comps = static_cast<std::size_t>(num_components);
  // Kahn's algorithm on the contracted multigraph, its adjacency in CSR form:
  // count each component's cross out-edges, then place their heads.
  scratch.indegree.assign(comps, 0);
  scratch.offset.assign(comps + 1, 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    const std::int32_t cs = assignment[static_cast<std::size_t>(edge.src)];
    const std::int32_t cd = assignment[static_cast<std::size_t>(edge.dst)];
    CCS_EXPECTS(cs >= 0 && cs < num_components && cd >= 0 && cd < num_components,
                "component id out of range");
    if (cs == cd) continue;
    ++scratch.offset[static_cast<std::size_t>(cs) + 1];
    ++scratch.indegree[static_cast<std::size_t>(cd)];
  }
  for (std::size_t c = 0; c < comps; ++c) scratch.offset[c + 1] += scratch.offset[c];
  scratch.cursor.assign(scratch.offset.begin(), scratch.offset.end() - 1);
  scratch.adj.resize(static_cast<std::size_t>(scratch.offset[comps]));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    const std::int32_t cs = assignment[static_cast<std::size_t>(edge.src)];
    const std::int32_t cd = assignment[static_cast<std::size_t>(edge.dst)];
    if (cs == cd) continue;
    scratch.adj[static_cast<std::size_t>(scratch.cursor[static_cast<std::size_t>(cs)]++)] = cd;
  }
  scratch.ready.clear();
  scratch.order.clear();
  for (std::int32_t c = 0; c < num_components; ++c) {
    if (scratch.indegree[static_cast<std::size_t>(c)] == 0) scratch.ready.push_back(c);
  }
  std::int32_t seen = 0;
  while (!scratch.ready.empty()) {
    const auto c = static_cast<std::size_t>(scratch.ready.back());
    scratch.ready.pop_back();
    scratch.order.push_back(static_cast<std::int32_t>(c));
    ++seen;
    for (std::int32_t i = scratch.offset[c]; i < scratch.offset[c + 1]; ++i) {
      const std::int32_t d = scratch.adj[static_cast<std::size_t>(i)];
      if (--scratch.indegree[static_cast<std::size_t>(d)] == 0) scratch.ready.push_back(d);
    }
  }
  return seen == num_components;
}

ContractionLabels::ContractionLabels(const SdfGraph& g,
                                     const std::vector<std::int32_t>& assignment,
                                     std::int32_t num_components)
    : graph_(&g) {
  CCS_EXPECTS(contraction_is_acyclic(g, assignment, num_components, scratch_),
              "labels need an acyclic contraction");
  // Fresh singletons append labels: reserve for as many as there are nodes.
  label_.reserve(static_cast<std::size_t>(std::max(num_components, g.node_count())) + 1);
  relabel(num_components);
}

void ContractionLabels::relabel(std::int32_t num_components) {
  label_.resize(static_cast<std::size_t>(num_components));
  for (std::size_t i = 0; i < scratch_.order.size(); ++i) {
    label_[static_cast<std::size_t>(scratch_.order[i])] = static_cast<double>(i);
  }
}

bool ContractionLabels::accept(const std::vector<std::int32_t>& assignment,
                               std::int32_t num_components, NodeId v, bool fresh) {
  const SdfGraph& g = *graph_;
  const std::int32_t target = assignment[static_cast<std::size_t>(v)];
  // v's cross edges after the move must go up into and out of the target.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = -kInf;
  double hi = kInf;
  for (const EdgeId e : g.in_edges(v)) {
    const std::int32_t c = assignment[static_cast<std::size_t>(g.edge(e).src)];
    if (c != target) lo = std::max(lo, label_[static_cast<std::size_t>(c)]);
  }
  for (const EdgeId e : g.out_edges(v)) {
    const std::int32_t c = assignment[static_cast<std::size_t>(g.edge(e).dst)];
    if (c != target) hi = std::min(hi, label_[static_cast<std::size_t>(c)]);
  }
  const double at = !fresh            ? label_[static_cast<std::size_t>(target)]
                    : lo == -kInf     ? (hi == kInf ? 0.0 : hi - 1.0)
                    : hi == kInf      ? lo + 1.0
                                      : lo + (hi - lo) / 2;
  // Strict on both sides, which also refuses a midpoint lost to rounding.
  if (lo < at && at < hi) {
    CCS_AUDIT(contraction_is_acyclic(g, assignment, num_components, scratch_),
              "a move the labels keep upward must leave the contraction acyclic");
    if (fresh) label_.push_back(at);
    return true;
  }
  ++searches_;
  if (!contraction_is_acyclic(g, assignment, num_components, scratch_)) return false;
  relabel(num_components);
  return true;
}

std::vector<NodeId> pipeline_order(const SdfGraph& g) {
  if (!g.is_pipeline()) throw GraphError("graph is not a pipeline");
  const auto srcs = g.sources();
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(g.node_count()));
  NodeId v = srcs.front();
  order.push_back(v);
  while (!g.out_edges(v).empty()) {
    v = g.edge(g.out_edges(v).front()).dst;
    order.push_back(v);
  }
  CCS_ENSURES(static_cast<std::int32_t>(order.size()) == g.node_count(),
              "pipeline chain must cover all modules");
  return order;
}

}  // namespace ccs::sdf
