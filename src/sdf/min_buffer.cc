#include "sdf/min_buffer.h"

#include <algorithm>

#include "sdf/token_sim.h"
#include "sdf/topology.h"
#include "util/error.h"
#include "util/int_math.h"

namespace ccs::sdf {

std::int64_t edge_min_buffer(std::int64_t out_rate, std::int64_t in_rate) {
  CCS_EXPECTS(out_rate > 0 && in_rate > 0, "rates must be positive");
  return out_rate + in_rate - gcd64(out_rate, in_rate);
}

std::vector<std::int64_t> feasible_buffers(const SdfGraph& g) {
  const RepetitionVector reps(g);
  const auto topo = topological_sort(g);

  std::vector<std::int64_t> cap(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    // A capacity below max(out, in) can never pass a token; the classical
    // single-edge bound is a valid starting point.
    cap[static_cast<std::size_t>(e)] =
        std::min(edge_min_buffer(edge.out_rate, edge.in_rate), reps.edge_tokens(e));
    cap[static_cast<std::size_t>(e)] =
        std::max(cap[static_cast<std::size_t>(e)], std::max(edge.out_rate, edge.in_rate));
  }

  // Run one iteration's sweep -- every module limited to q(v) firings --
  // under the current capacities, and on a deadlock grow a blocked edge.
  TokenSim sim(g, cap);
  FiringProgram firings;
  while (true) {
    firings.clear();
    sim.sweep(topo, reps.counts(), kUnbounded, firings);
    // The topologically-first unfinished module has all of its producers
    // finished, so by the balance equations its inputs are sufficient; it
    // must be output-blocked. Grow its fullest blocked edge.
    const auto unfinished = std::find_if(topo.begin(), topo.end(), [&](NodeId v) {
      return sim.fired(v) < reps.count(v);
    });
    if (unfinished == topo.end()) {
      CCS_CHECK(sim.drained(), "steady-state iteration must drain all channels");
      break;
    }
    EdgeId blocked = kInvalidEdge;
    for (const EdgeId e : g.out_edges(*unfinished)) {
      if (sim.space(e) < g.edge(e).out_rate) {
        blocked = e;
        break;
      }
    }
    if (blocked == kInvalidEdge) {
      // Input-blocked topologically-first module: producers all finished
      // yet tokens are short -- impossible for a rate-matched graph.
      throw RateError("module '" + g.node(*unfinished).name +
                      "' starved in steady state; graph is not rate matched");
    }
    auto& c = cap[static_cast<std::size_t>(blocked)];
    // Grow by one producer burst, never beyond one full iteration's traffic
    // (which is always sufficient: the producer can then finish outright).
    const std::int64_t limit = std::max(reps.edge_tokens(blocked),
                                        g.edge(blocked).out_rate + g.edge(blocked).in_rate);
    CCS_CHECK(c < limit, "buffer growth exceeded steady-state traffic");
    c = std::min(limit, checked_add(c, g.edge(blocked).out_rate));
    sim.reset(cap);
  }
  return cap;
}

std::int64_t internal_buffer_total(const SdfGraph& g, const std::vector<bool>& member,
                                   const std::vector<std::int64_t>& buf) {
  CCS_EXPECTS(member.size() == static_cast<std::size_t>(g.node_count()),
              "member mask size must equal node count");
  CCS_EXPECTS(buf.size() == static_cast<std::size_t>(g.edge_count()),
              "buffer vector size must equal edge count");
  std::int64_t total = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    if (member[static_cast<std::size_t>(edge.src)] &&
        member[static_cast<std::size_t>(edge.dst)]) {
      total = checked_add(total, buf[static_cast<std::size_t>(e)]);
    }
  }
  return total;
}

}  // namespace ccs::sdf
