// E17 -- asynchronous homogeneous dag scheduling vs the static batch
// schedule (Section 3's "asynchronous or parallel dynamic schedule").
//
// Same comparison as E11 but for dags: the online rule (all inputs hold M
// tokens, all outputs empty -> run M iterations) against the topological
// batch schedule from the same partition. Expected shape: miss parity
// within a small constant, no deadlocks -- homogeneity guarantees a
// schedulable component always exists.

#include "bench/common.h"
#include "partition/dag_greedy.h"
#include "schedule/dynamic.h"
#include "schedule/partitioned.h"
#include "sdf/min_buffer.h"
#include "util/rng.h"
#include "workloads/random_dag.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 256;
  const std::int64_t b = 8;
  const std::int64_t outputs = 2048;
  Rng rng(1717);

  Table t("E17: static batch vs dynamic scheduling on homogeneous dags (M=256, B=8)");
  t.set_header({"seed", "components", "static misses/out", "dynamic misses/out",
                "dyn/static"});
  for (int seed = 0; seed < 6; ++seed) {
    Rng trial = rng.fork();
    workloads::LayeredSpec spec;
    spec.layers = 4;
    spec.width = 3;
    spec.state_lo = 120;
    spec.state_hi = 240;
    const auto g = workloads::layered_homogeneous_dag(spec, trial);
    const auto p = partition::dag_greedy_partition(g, 3 * m);

    schedule::PartitionedOptions sopts;
    sopts.m = m;
    const auto stat = schedule::partitioned_schedule(g, p, sopts, sdf::feasible_buffers(g));
    const auto dyn = schedule::dynamic_homogeneous_schedule(g, p, m, outputs);
    const auto r_stat = bench::run(g, stat, 4 * m, b, outputs);
    const auto r_dyn = bench::run(g, dyn, 4 * m, b, outputs);
    t.add_row({Table::num(static_cast<std::int64_t>(seed)),
               Table::num(static_cast<std::int64_t>(p.num_components)),
               Table::num(r_stat.misses_per_output(), 3),
               Table::num(r_dyn.misses_per_output(), 3),
               bench::safe_ratio(r_dyn.misses_per_output(), r_stat.misses_per_output())});
  }
  bench::emit(t, csv);
  return 0;
}
