// Topological utilities over streaming graphs: sorting, precedence,
// reachability, and component contraction (used to verify that partitions
// are "well ordered" per Definition 2 of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "sdf/graph.h"

namespace ccs::sdf {

/// Kahn topological sort. Throws GraphError if the graph has a cycle.
/// Deterministic: ties are broken by smallest node id.
std::vector<NodeId> topological_sort(const SdfGraph& g);

/// True iff the graph has no directed cycle.
bool is_acyclic(const SdfGraph& g);

/// Precomputed transitive reachability. precedes(u, v) answers "u ≺ v"
/// (a directed path u -> ... -> v exists, u != v) in O(1) after O(V·E/64)
/// construction using packed bitsets.
class Reachability {
 public:
  explicit Reachability(const SdfGraph& g);

  /// True iff there is a directed path from u to v (u != v).
  bool precedes(NodeId u, NodeId v) const {
    CCS_EXPECTS(u >= 0 && u < n_ && v >= 0 && v < n_, "node id out of range");
    if (u == v) return false;
    const auto& row = bits_[static_cast<std::size_t>(u)];
    return (row[static_cast<std::size_t>(v) >> 6] >> (static_cast<std::size_t>(v) & 63)) & 1U;
  }

  /// True iff u and v are incomparable (neither precedes the other).
  bool incomparable(NodeId u, NodeId v) const {
    return u != v && !precedes(u, v) && !precedes(v, u);
  }

 private:
  std::int32_t n_;
  std::vector<std::vector<std::uint64_t>> bits_;  // bits_[u] = set of v with u ≺ v
};

/// An edge of the contracted multigraph: the component ids at both ends plus
/// the originating channel. Internal edges (same component) are omitted.
struct ContractedEdge {
  std::int32_t src_comp;
  std::int32_t dst_comp;
  EdgeId origin;
};

/// Contracts each component of `assignment` (node -> component id in
/// [0, num_components)) to a single vertex and returns all cross edges.
std::vector<ContractedEdge> contract(const SdfGraph& g,
                                     const std::vector<std::int32_t>& assignment,
                                     std::int32_t num_components);

/// Buffers for contraction_is_acyclic. A caller that checks many
/// assignments of one graph (a local search) keeps one and allocates
/// nothing after the first check.
struct ContractionScratch {
  std::vector<std::int32_t> indegree;  ///< Per component.
  std::vector<std::int32_t> offset;    ///< Per component + 1: adjacency start.
  std::vector<std::int32_t> cursor;    ///< Per component: next free adjacency slot.
  std::vector<std::int32_t> adj;       ///< Cross-edge heads, grouped by tail.
  std::vector<std::int32_t> ready;     ///< Kahn's stack of zero-indegree components.
  std::vector<std::int32_t> order;     ///< Components in the order Kahn's visited them.
};

/// True iff the contracted multigraph is acyclic, i.e. the partition
/// described by `assignment` is well ordered (Definition 2).
bool contraction_is_acyclic(const SdfGraph& g, const std::vector<std::int32_t>& assignment,
                            std::int32_t num_components);

/// As above, with the working buffers taken from (and left in) `scratch`.
/// On true, scratch.order is a topological order of the components.
bool contraction_is_acyclic(const SdfGraph& g, const std::vector<std::int32_t>& assignment,
                            std::int32_t num_components, ContractionScratch& scratch);

/// Decides whether moving one node to another component keeps a contraction
/// acyclic, mostly without a search -- the inner check of a local search
/// (partition::anneal_partition). It keeps a real label per component such
/// that every contracted edge goes strictly upward. A move under which every
/// edge of the moved node still goes upward keeps the labels valid, so the
/// contraction stays acyclic with no search; a fresh singleton takes the
/// midpoint between its predecessors' highest and its successors' lowest
/// label. Any other move runs contraction_is_acyclic, which answers it
/// exactly and, when the move is kept, relabels every component from its
/// order. Audit builds check every search-free answer against it.
class ContractionLabels {
 public:
  /// Labels the contraction of `assignment`, which must be acyclic.
  ContractionLabels(const SdfGraph& g, const std::vector<std::int32_t>& assignment,
                    std::int32_t num_components);

  /// `assignment` and `num_components` already hold node v's move (into a
  /// new component num_components - 1 when `fresh`). Returns whether the
  /// contraction is still acyclic. On true the labels follow the move; on
  /// false they are unchanged and the caller undoes the move.
  bool accept(const std::vector<std::int32_t>& assignment, std::int32_t num_components,
              NodeId v, bool fresh);

  /// accept() calls that needed contraction_is_acyclic.
  std::int64_t searches() const noexcept { return searches_; }

 private:
  /// Labels each component by its position in scratch_.order.
  void relabel(std::int32_t num_components);

  const SdfGraph* graph_;
  std::vector<double> label_;  ///< Per component of the last accepted contraction.
  ContractionScratch scratch_;
  std::int64_t searches_ = 0;
};

/// Orders modules of a pipeline from source to sink. Throws GraphError if
/// the graph is not a pipeline.
std::vector<NodeId> pipeline_order(const SdfGraph& g);

}  // namespace ccs::sdf
