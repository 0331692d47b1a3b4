// E5 -- homogeneous dags: partitioned vs naive vs the Theorem 7 bound.
//
// Workload: random layered homogeneous dags small enough for the exact
// minBW_3 solver. For each M, compute minBW_3(G) exactly, schedule with the
// exact partition, and compare against naive on the same augmented cache.
// Expected shape: measured(partitioned)/LB stays a small constant across M
// (Lemma 8), while naive's ratio grows as the cache shrinks relative to
// total state.

#include "analysis/lower_bound.h"
#include "bench/common.h"
#include "partition/dag_exact.h"
#include "schedule/naive.h"
#include "schedule/partitioned.h"
#include "sdf/min_buffer.h"
#include "util/rng.h"
#include "workloads/random_dag.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t b = 8;
  const std::int64_t outputs = 2048;
  Rng rng(404);
  workloads::LayeredSpec spec;
  spec.layers = 3;
  spec.width = 3;
  spec.state_lo = 200;
  spec.state_hi = 400;
  const auto g = workloads::layered_homogeneous_dag(spec, rng);

  Table t("E5: homogeneous layered dag (11 modules) vs Theorem 7 bound (B=8, sim 4M)");
  t.set_header({"M", "minBW3", "LB misses", "partitioned", "part/LB", "naive", "naive/part"});
  for (const std::int64_t m : {256, 512, 1024}) {
    if (g.max_state() > m) continue;
    const auto bw = analysis::dag_min_bandwidth_3m(g, m);
    if (!bw.has_value()) continue;

    partition::ExactOptions eopts;
    eopts.state_bound = 3 * m;
    const auto exact = partition::dag_exact_partition(g, eopts);
    if (!exact.has_value()) continue;
    schedule::PartitionedOptions sopts;
    sopts.m = m;
    const auto sched = schedule::partitioned_schedule(g, exact->partition, sopts, sdf::feasible_buffers(g));
    const auto r_part = bench::run(g, sched, 4 * m, b, outputs);
    const auto r_naive =
        bench::run(g, schedule::naive_minimal_buffer_schedule(g), 4 * m, b, outputs);
    const double lb = analysis::bound_misses(*bw, r_part.source_firings, b);
    t.add_row({Table::num(m), bw->to_string(), Table::num(lb, 0),
               Table::num(static_cast<std::int64_t>(r_part.cache.misses)),
               bench::safe_ratio(static_cast<double>(r_part.cache.misses), lb),
               Table::num(static_cast<std::int64_t>(r_naive.cache.misses)),
               bench::safe_ratio(r_naive.misses_per_output(), r_part.misses_per_output(), 1)});
  }
  bench::emit(t, csv);
  return 0;
}
