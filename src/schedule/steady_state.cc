#include "schedule/steady_state.h"

#include "sdf/repetition.h"
#include "sdf/token_sim.h"
#include "sdf/topology.h"
#include "util/error.h"

namespace ccs::schedule {

sdf::FiringProgram demand_driven_iteration(const sdf::SdfGraph& g,
                                           std::span<const std::int64_t> caps) {
  const sdf::RepetitionVector reps(g);
  const auto topo = sdf::topological_sort(g);
  sdf::TokenSim sim(g, caps);
  sdf::FiringProgram out;
  if (sim.sweep(topo, reps.counts(), sdf::kUnbounded, out) < reps.total_firings()) {
    throw DeadlockError("steady-state iteration deadlocked under given capacities");
  }
  CCS_ENSURES(sim.drained(), "iteration must return channels to empty");
  return out;
}

sdf::FiringProgram single_appearance_iteration(const sdf::SdfGraph& g,
                                               std::vector<std::int64_t>* caps_out) {
  const sdf::RepetitionVector reps(g);
  const auto topo = sdf::topological_sort(g);
  if (caps_out != nullptr) {
    caps_out->resize(static_cast<std::size_t>(g.edge_count()));
    for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
      (*caps_out)[static_cast<std::size_t>(e)] = reps.edge_tokens(e);
    }
  }
  sdf::FiringProgram out;
  for (const sdf::NodeId v : topo) out.append_block(std::span(&v, 1), reps.count(v));
  return out;
}

}  // namespace ccs::schedule
