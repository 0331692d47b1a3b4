// E11 -- dynamic (online) scheduling matches static batching (Sections 3-4).
//
// The dynamic pipeline scheduler fixes no output count in advance, choosing
// components by the half-full/half-empty rule. Across random pipelines,
// compare its misses to the static batch schedule built from the same
// partition. Expected shape: ratio ~1 (the paper: the batch schedules "can
// be easily transformed into dynamic schedules" with the same bounds) and
// no deadlocks anywhere.

#include "bench/common.h"
#include "partition/pipeline_dp.h"
#include "schedule/dynamic.h"
#include "schedule/partitioned.h"
#include "sdf/min_buffer.h"
#include "util/rng.h"
#include "workloads/pipelines.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 512;
  const std::int64_t b = 8;
  const std::int64_t outputs = 4096;
  Rng rng(1111);

  Table t("E11: static batch vs dynamic pipeline scheduling (M=512, B=8, sim 8M)");
  t.set_header({"seed", "segments", "static misses/out", "dynamic misses/out", "dyn/static"});
  for (int seed = 0; seed < 6; ++seed) {
    Rng trial = rng.fork();
    const auto g = workloads::random_pipeline(20, 64, 300, 3, trial);
    const auto dp = partition::pipeline_optimal_partition(g, 3 * m);
    schedule::PartitionedOptions sopts;
    sopts.m = m;
    const auto stat = schedule::partitioned_schedule(g, dp.partition, sopts, sdf::feasible_buffers(g));
    const auto dyn = schedule::dynamic_pipeline_schedule(g, dp.partition, m, outputs);
    const auto r_stat = bench::run(g, stat, 8 * m, b, outputs);
    const auto r_dyn = bench::run(g, dyn, 8 * m, b, outputs);
    t.add_row({Table::num(static_cast<std::int64_t>(seed)),
               Table::num(static_cast<std::int64_t>(dp.partition.num_components)),
               Table::num(r_stat.misses_per_output(), 3),
               Table::num(r_dyn.misses_per_output(), 3),
               bench::safe_ratio(r_dyn.misses_per_output(), r_stat.misses_per_output())});
  }
  bench::emit(t, csv);
  return 0;
}
