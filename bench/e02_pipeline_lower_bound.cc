// E2 -- the Theorem 3 lower bound vs measured misses (Thm 3 / Lemma 4).
//
// Workload: random multirate pipelines across seeds. For each, compute the
// Theorem 3 witness bound (T/B * sum of gain-minimizing edge gains over the
// 2M segments), simulate the partitioned schedule on an 8M cache, and the
// naive schedule on an M cache. Expected shape: measured(any) >= ~LB, and
// measured(partitioned) within a small constant of LB -- the sandwich that
// proves near-optimality.

#include "analysis/lower_bound.h"
#include "bench/common.h"
#include "schedule/naive.h"
#include "util/rng.h"
#include "workloads/pipelines.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 512;
  const std::int64_t b = 8;
  Rng rng(2024);

  Table t("E2: Theorem 3 lower bound vs measured misses (random pipelines, M=512, B=8)");
  t.set_header({"seed", "LB bw", "LB misses", "partitioned", "part/LB", "naive@M", "naive/LB"});
  for (int seed = 0; seed < 6; ++seed) {
    Rng trial = rng.fork();
    const auto g = workloads::random_pipeline(20, 64, 300, 3, trial);
    const auto bound = analysis::pipeline_lower_bound(g, m);
    if (bound.bandwidth_term.is_zero()) continue;

    core::PlannerOptions opts;
    opts.cache.capacity_words = m;
    opts.cache.block_words = b;
    const auto plan = core::Planner(g, opts).plan();
    const std::int64_t outputs = 4 * plan.schedule.outputs_per_period;
    const auto r_part = bench::run(g, plan.schedule, 8 * m, b, outputs);
    const auto naive = schedule::naive_minimal_buffer_schedule(g);
    const auto r_naive = bench::run(g, naive, m, b, outputs);

    const double lb_part = bound.misses(r_part.source_firings, b);
    const double lb_naive = bound.misses(r_naive.source_firings, b);
    t.add_row({Table::num(static_cast<std::int64_t>(seed)),
               bound.bandwidth_term.to_string(), Table::num(lb_part, 0),
               Table::num(static_cast<std::int64_t>(r_part.cache.misses)),
               bench::safe_ratio(static_cast<double>(r_part.cache.misses), lb_part),
               Table::num(static_cast<std::int64_t>(r_naive.cache.misses)),
               bench::safe_ratio(static_cast<double>(r_naive.cache.misses), lb_naive)});
  }
  bench::emit(t, csv);
  return 0;
}
