// The graph grid of the plan-sweep benchmark workload, for differential
// tests of the planning path: every StreamIt-suite graph plus four seeded
// graphs each of the uniform, hourglass and heavy-tail pipeline families,
// the layered homogeneous dags and the series-parallel dags. The seeded part
// is drawn exactly as perfbench/plan_sweep.cc draws it, so a test run over
// seed 1 covers the graphs a seed-1 benchmark run plans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace ccs::test_support {

inline std::vector<workloads::NamedGraph> plan_sweep_graphs(std::uint64_t seed) {
  std::vector<workloads::NamedGraph> out = workloads::streamit_suite();
  Rng rng(seed);
  for (std::int32_t i = 0; i < 4; ++i) {
    const std::string tag = std::string("-") + std::to_string(i);
    out.push_back({"uniform" + tag, workloads::uniform_pipeline(8 + 4 * i, rng.uniform(144, 160))});
    out.push_back({"hourglass" + tag,
                   workloads::hourglass_pipeline(6 + 2 * (i % 2), rng.uniform(144, 160), 2)});
    out.push_back({"heavy-tail" + tag,
                   workloads::heavy_tail_pipeline(12 + 4 * i, rng.uniform(56, 64),
                                                  rng.uniform(400, 432), 4)});
    workloads::LayeredSpec layered;
    layered.layers = 2 + i % 2;
    layered.width = 2 + i / 2;
    layered.state_lo = 112;
    layered.state_hi = 176;
    out.push_back({"layered" + tag, workloads::layered_homogeneous_dag(layered, rng)});
    workloads::SeriesParallelSpec sp;
    sp.target_nodes = 8 + 2 * i;
    sp.max_rate = 2;
    sp.state_lo = 112;
    sp.state_hi = 176;
    out.push_back({"series-parallel" + tag, workloads::series_parallel_dag(sp, rng)});
  }
  return out;
}

}  // namespace ccs::test_support
