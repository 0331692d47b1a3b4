// Golden gate for the partitioned scheduler as the planner drives it: for
// every StreamIt-suite graph and a few seeded dags, at M = 512 and 2048
// words, every applicable partitioner's plan_all() row is reduced to one
// line -- period length, inputs/outputs per period, component count, batch
// T and an FNV-1a hash of the period followed by the buffer caps -- and the
// lines must match tests/golden/partitioned_schedules.txt byte for byte.
// The file pins the output of partitioners the simulated "auto" plan never
// uses (anneal, agglomerative, ...), so a change to schedule generation or
// to a partitioner's search that moves any firing shows here.
//
// On a mismatch the produced text is written to
// partitioned_schedules.actual.txt in the working directory for diffing.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/planner.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace ccs::schedule {
namespace {

/// 64-bit FNV-1a over each value's eight little-endian bytes.
class Fnv1a {
 public:
  void add(std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i, bits >>= 8) {
      hash_ = (hash_ ^ (bits & 0xffU)) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::vector<workloads::NamedGraph> golden_graphs() {
  std::vector<workloads::NamedGraph> out = workloads::streamit_suite();
  for (const std::uint64_t seed : {3, 7}) {
    Rng rng(seed);
    workloads::LayeredSpec layered;
    layered.layers = 3;
    layered.width = 3;
    layered.state_lo = 112;
    layered.state_hi = 176;
    out.push_back({"layered-" + std::to_string(seed),
                   workloads::layered_homogeneous_dag(layered, rng)});
    workloads::SeriesParallelSpec sp;
    sp.target_nodes = 12;
    sp.max_rate = 3;
    sp.state_lo = 112;
    sp.state_hi = 176;
    out.push_back({"series-parallel-" + std::to_string(seed),
                   workloads::series_parallel_dag(sp, rng)});
  }
  return out;
}

std::string render_golden() {
  std::ostringstream os;
  for (const auto& app : golden_graphs()) {
    for (const std::int64_t m : {512, 2048}) {
      const std::string cell = app.name + "@" + std::to_string(m);
      core::PlannerOptions opts;
      opts.cache = {m, 8};
      try {
        const core::Planner planner(app.graph, opts);
        for (const core::Plan& plan : planner.plan_all()) {
          const Schedule& s = plan.schedule;
          Fnv1a hash;
          for (const sdf::NodeId v : s.period.flatten()) hash.add(v);
          for (const std::int64_t cap : s.buffer_caps) hash.add(cap);
          os << cell << " " << plan.partitioner_name << " period=" << s.period.size()
             << " in=" << s.inputs_per_period << " out=" << s.outputs_per_period
             << " components=" << plan.partition.num_components << " T=" << plan.batch_t
             << " fnv=" << std::hex << hash.value() << std::dec << "\n";
        }
      } catch (const Error& e) {
        os << cell << " error: " << e.what() << "\n";
      }
    }
  }
  return os.str();
}

TEST(PartitionedScheduleGolden, PlanAllRowsMatchTheRecordedFile) {
  std::ifstream in(std::string(CCS_GOLDEN_DIR) + "/partitioned_schedules.txt");
  ASSERT_TRUE(in) << "missing golden partitioned_schedules.txt";
  std::ostringstream golden;
  golden << in.rdbuf();
  const std::string actual = render_golden();
  if (actual != golden.str()) {
    std::ofstream("partitioned_schedules.actual.txt") << actual;
  }
  EXPECT_EQ(actual, golden.str());
}

}  // namespace
}  // namespace ccs::schedule
