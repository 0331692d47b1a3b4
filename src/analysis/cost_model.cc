#include "analysis/cost_model.h"

#include <cmath>

#include "sdf/gain.h"
#include "util/int_math.h"

namespace ccs::analysis {

CostPrediction predict_partitioned_cost(const sdf::SdfGraph& g,
                                        const partition::Partition& p, std::int64_t t,
                                        std::int64_t b,
                                        std::span<const std::int64_t> feasible_buffers) {
  CCS_EXPECTS(t > 0 && b > 0, "batch size and block size must be positive");
  const sdf::GainMap gains(g);
  CCS_EXPECTS(feasible_buffers.size() == static_cast<std::size_t>(g.edge_count()),
              "one feasible buffer per edge required");
  const auto states = partition::component_states(g, p);

  CostPrediction cost;
  for (const std::int64_t s : states) {
    cost.state_term += static_cast<double>(ceil_div(s, b));
  }
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    if (p.comp(edge.src) == p.comp(edge.dst)) {
      cost.buffer_term +=
          static_cast<double>(ceil_div(feasible_buffers[static_cast<std::size_t>(e)], b));
    } else {
      // Written by the producer component and read by the consumer: the
      // batch's tokens cross the cache boundary twice.
      cost.cross_term += 2.0 * static_cast<double>(t) * gains.edge_gain(e).to_double() /
                         static_cast<double>(b);
    }
  }
  cost.misses_per_batch = cost.state_term + cost.buffer_term + cost.cross_term;
  cost.misses_per_input = cost.misses_per_batch / static_cast<double>(t);
  return cost;
}

}  // namespace ccs::analysis
