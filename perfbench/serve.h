// Tenant inputs and cluster configuration shared by the serving workloads
// and the layer ladder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "sdf/graph.h"

namespace perfbench {

/// Cache size every tenant plans its buffers for (a share of one L1).
constexpr std::int64_t kPlanWords = 1024;

struct TenantGraph {
  std::string name;
  ccs::sdf::SdfGraph graph;
};

/// `count` seeded tenant graphs, cycling through uniform, heavy-tail and
/// hourglass pipelines and layered homogeneous dags; every module fits
/// kPlanWords.
std::vector<TenantGraph> tenant_graphs(std::uint64_t seed, std::int32_t count);

/// The serving cluster: 4 workers with private 4096-word L1s over a shared
/// 32768-word LLC, "adaptive" placement, the "two-level" cost model.
ccs::core::ClusterOptions serving_options();

}  // namespace perfbench
