// E4 -- memory augmentation sweep (Cor 6 / Cor 9).
//
// The guarantees hold when the partitioned scheduler runs on an O(1)-factor
// larger cache than the M its partition was built for. Sweep the simulation
// cache from 1x to 8x M on a pipeline and a dag. Expected shape: misses
// drop sharply from 1x to ~3-4x (components + working buffers start to
// fit), then flatten -- constant augmentation suffices, more buys little.

#include "bench/common.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/streamit.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 512;
  const std::int64_t b = 8;
  const std::int64_t outputs = 2048;

  const auto pipe = workloads::uniform_pipeline(24, 256);
  const auto dag = workloads::fm_radio(10);

  core::PlannerOptions opts;
  opts.cache.capacity_words = m;
  opts.cache.block_words = b;
  const auto plan_pipe = core::Planner(pipe, opts).plan();
  const auto plan_dag = core::Planner(dag, opts).plan();

  Table t("E4: partitioned misses/output vs cache augmentation factor (M=512, B=8)");
  t.set_header({"cache factor", "pipeline 24x256", "FMRadio dag"});
  for (const std::int64_t factor : {1, 2, 3, 4, 6, 8}) {
    const auto r_pipe = bench::run(pipe, plan_pipe.schedule, factor * m, b, outputs);
    const auto r_dag = bench::run(dag, plan_dag.schedule, factor * m, b, outputs);
    t.add_row({Table::num(factor), Table::num(r_pipe.misses_per_output(), 3),
               Table::num(r_dag.misses_per_output(), 3)});
  }
  bench::emit(t, csv);
  return 0;
}
