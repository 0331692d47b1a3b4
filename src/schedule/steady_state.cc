#include "schedule/steady_state.h"

#include "schedule/token_sim.h"
#include "sdf/repetition.h"
#include "sdf/topology.h"
#include "util/error.h"

namespace ccs::schedule {

std::vector<sdf::NodeId> demand_driven_iteration(const sdf::SdfGraph& g,
                                                 std::span<const std::int64_t> caps) {
  const sdf::RepetitionVector reps(g);
  const auto topo = sdf::topological_sort(g);
  TokenSim sim(g, caps);
  std::vector<sdf::NodeId> out;
  out.reserve(static_cast<std::size_t>(reps.total_firings()));

  std::int64_t outstanding = reps.total_firings();
  while (outstanding > 0) {
    bool progressed = false;
    for (const sdf::NodeId v : topo) {
      const std::int64_t want = reps.count(v) - sim.fired(v);
      if (want <= 0) continue;
      const std::int64_t batch = sim.fire_up_to(v, want);
      if (batch <= 0) continue;
      out.insert(out.end(), static_cast<std::size_t>(batch), v);
      outstanding -= batch;
      progressed = true;
    }
    if (!progressed) {
      throw DeadlockError("steady-state iteration deadlocked under given capacities");
    }
  }
  CCS_ENSURES(sim.drained(), "iteration must return channels to empty");
  return out;
}

std::vector<sdf::NodeId> single_appearance_iteration(const sdf::SdfGraph& g,
                                                     std::vector<std::int64_t>* caps_out) {
  const sdf::RepetitionVector reps(g);
  const auto topo = sdf::topological_sort(g);
  if (caps_out != nullptr) {
    caps_out->resize(static_cast<std::size_t>(g.edge_count()));
    for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
      (*caps_out)[static_cast<std::size_t>(e)] = reps.edge_tokens(e);
    }
  }
  std::vector<sdf::NodeId> out;
  out.reserve(static_cast<std::size_t>(reps.total_firings()));
  for (const sdf::NodeId v : topo) {
    out.insert(out.end(), static_cast<std::size_t>(reps.count(v)), v);
  }
  return out;
}

}  // namespace ccs::schedule
