// E3 -- partitioner quality across pipeline families (Thm 5 vs the DP).
//
// For each pipeline family, compare the Theorem 5 greedy construction
// against the optimal DP: bandwidth of the partition and measured misses of
// the schedules built from each. Expected shape: bw(DP) <= bw(greedy)
// always; measured misses within a small constant of each other (the paper:
// the optimal partition "provides no more cache misses ... but not
// asymptotically fewer").

#include "bench/common.h"
#include "partition/pipeline_dp.h"
#include "partition/pipeline_greedy.h"
#include "schedule/partitioned.h"
#include "sdf/gain.h"
#include "sdf/min_buffer.h"
#include "util/rng.h"
#include "workloads/pipelines.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 512;
  const std::int64_t b = 8;
  const std::int64_t outputs = 2048;
  Rng rng(7);

  struct Family {
    std::string name;
    sdf::SdfGraph graph;
  };
  std::vector<Family> families;
  families.push_back({"uniform", workloads::uniform_pipeline(24, 256)});
  families.push_back({"random", workloads::random_pipeline(24, 64, 400, 3, rng)});
  families.push_back({"hourglass", workloads::hourglass_pipeline(24, 256, 2)});
  families.push_back({"heavy-tail", workloads::heavy_tail_pipeline(24, 64, 512, 6)});

  Table t("E3: Theorem-5 greedy vs optimal DP partitions (M=512, B=8)");
  t.set_header({"family", "bw greedy", "bw dp", "comps g/d", "misses/out greedy",
                "misses/out dp"});
  t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight});
  for (const auto& family : families) {
    const auto& g = family.graph;
    const sdf::GainMap gains(g);
    const auto greedy = partition::pipeline_greedy_partition(g, m);
    const auto dp = partition::pipeline_optimal_partition(
        g, partition::max_component_state(g, greedy.partition));
    schedule::PartitionedOptions sopts;
    sopts.m = m;
    const auto s_greedy = schedule::partitioned_schedule(g, greedy.partition, sopts, sdf::feasible_buffers(g));
    const auto s_dp = schedule::partitioned_schedule(g, dp.partition, sopts, sdf::feasible_buffers(g));
    const auto r_greedy = bench::run(g, s_greedy, 8 * m, b, outputs);
    const auto r_dp = bench::run(g, s_dp, 8 * m, b, outputs);
    t.add_row({family.name,
               partition::bandwidth(g, gains, greedy.partition).to_string(),
               dp.bandwidth.to_string(),
               std::to_string(greedy.partition.num_components) + "/" +
                   std::to_string(dp.partition.num_components),
               Table::num(r_greedy.misses_per_output(), 3),
               Table::num(r_dp.misses_per_output(), 3)});
  }
  bench::emit(t, csv);
  return 0;
}
