#include "schedule/token_sim.h"

#include <algorithm>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::schedule {

TokenSim::TokenSim(const sdf::SdfGraph& g, std::span<const std::int64_t> caps)
    : graph_(&g), caps_(caps.begin(), caps.end()) {
  CCS_EXPECTS(caps.size() == static_cast<std::size_t>(g.edge_count()),
              "one capacity per edge required");
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    if (caps_[static_cast<std::size_t>(e)] < std::max(edge.out_rate, edge.in_rate)) {
      throw ScheduleError("capacity of edge " + std::to_string(e) +
                          " cannot hold a single burst");
    }
  }
  tokens_.assign(static_cast<std::size_t>(g.edge_count()), 0);
  peak_.assign(static_cast<std::size_t>(g.edge_count()), 0);
  fired_.assign(static_cast<std::size_t>(g.node_count()), 0);

  // Flatten the adjacency once so probing and firing never walk the graph.
  spans_.resize(static_cast<std::size_t>(g.node_count()));
  ports_.reserve(2 * static_cast<std::size_t>(g.edge_count()));
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    PortSpan& span = spans_[static_cast<std::size_t>(v)];
    span.in_begin = static_cast<std::int32_t>(ports_.size());
    for (const sdf::EdgeId e : g.in_edges(v)) ports_.push_back(Port{e, g.edge(e).in_rate});
    span.out_begin = static_cast<std::int32_t>(ports_.size());
    for (const sdf::EdgeId e : g.out_edges(v)) ports_.push_back(Port{e, g.edge(e).out_rate});
    span.end = static_cast<std::int32_t>(ports_.size());
  }
}

bool TokenSim::can_fire(sdf::NodeId v) const { return max_batch(v, 1) >= 1; }

void TokenSim::fire(sdf::NodeId v, std::int64_t count) {
  CCS_EXPECTS(count >= 0, "negative firing count");
  if (max_batch(v, count) < count) {
    throw ScheduleError("module '" + graph_->node(v).name + "' cannot fire " +
                        std::to_string(count) + " time(s)");
  }
  fire_unchecked(v, count);
}

void TokenSim::advance(std::span<const NodeFirings> block) {
  for (const NodeFirings& f : block) {
    CCS_EXPECTS(f.count >= 0, "negative firing count");
    const PortSpan& span = spans_[static_cast<std::size_t>(f.node)];
    for (std::int32_t i = span.in_begin; i < span.out_begin; ++i) {
      const Port& p = ports_[static_cast<std::size_t>(i)];
      tokens_[static_cast<std::size_t>(p.edge)] -= f.count * p.rate;
    }
    for (std::int32_t i = span.out_begin; i < span.end; ++i) {
      const Port& p = ports_[static_cast<std::size_t>(i)];
      tokens_[static_cast<std::size_t>(p.edge)] += f.count * p.rate;
    }
    fired_[static_cast<std::size_t>(f.node)] += f.count;
  }
  for (const NodeFirings& f : block) {
    const PortSpan& span = spans_[static_cast<std::size_t>(f.node)];
    for (std::int32_t i = span.in_begin; i < span.end; ++i) {
      const auto e = static_cast<std::size_t>(ports_[static_cast<std::size_t>(i)].edge);
      if (tokens_[e] < 0 || tokens_[e] > caps_[e]) {
        throw ScheduleError("bulk advance leaves edge " + std::to_string(e) +
                            " outside [0, capacity]");
      }
      peak_[e] = std::max(peak_[e], tokens_[e]);
    }
  }
}

bool TokenSim::drained() const {
  return std::all_of(tokens_.begin(), tokens_.end(),
                     [](std::int64_t t) { return t == 0; });
}

}  // namespace ccs::schedule
