// E8 -- head-to-head with the literature baselines (Section 6).
//
// Schedulers: naive steady state, Sermulins-style execution scaling [25],
// Kohli-style greedy [15] (pipelines only), and this paper's partitioned
// scheduler. Per app, the cache is set to a quarter of total state so the
// working set never fits. Expected shape: partitioned wins everywhere;
// >=4x over naive on the cache-hostile apps reproduces the magnitude Moonen
// et al. [21] report for cache-aware scheduling on real workloads.

#include "bench/common.h"
#include "schedule/kohli.h"
#include "schedule/naive.h"
#include "schedule/scaled.h"
#include "util/stats.h"
#include "workloads/streamit.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t b = 8;
  const std::int64_t outputs = 1024;

  Table t("E8: baselines vs partitioned on StreamIt-style apps (M=state/4, B=8, sim 4M)");
  t.set_header({"app", "M", "naive", "scaled", "kohli", "partitioned", "naive/part"});
  t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight, Align::kRight});
  std::vector<double> reductions;
  for (const auto& app : workloads::streamit_suite()) {
    const auto& g = app.graph;
    const std::int64_t m = std::max(g.total_state() / 4, g.max_state());
    core::PlannerOptions opts;
    opts.cache.capacity_words = m;
    opts.cache.block_words = b;
    const auto plan = core::Planner(g, opts).plan();
    const auto r_naive =
        bench::run(g, schedule::naive_minimal_buffer_schedule(g), 4 * m, b, outputs);
    const auto r_scaled = bench::run(g, schedule::scaled_schedule(g, m), 4 * m, b, outputs);
    std::string kohli_cell = "-";
    if (g.is_pipeline()) {
      const auto r_kohli = bench::run(g, schedule::kohli_schedule(g, m), 4 * m, b, outputs);
      kohli_cell = Table::num(r_kohli.misses_per_output(), 2);
    }
    const auto r_part = bench::run(g, plan.schedule, 4 * m, b, outputs);
    const double reduction = r_part.misses_per_output() > 0
                                 ? r_naive.misses_per_output() / r_part.misses_per_output()
                                 : 0.0;
    if (reduction > 0) reductions.push_back(reduction);
    t.add_row({app.name, Table::num(m), Table::num(r_naive.misses_per_output(), 2),
               Table::num(r_scaled.misses_per_output(), 2), kohli_cell,
               Table::num(r_part.misses_per_output(), 2), Table::ratio(reduction, 1)});
  }
  bench::emit(t, csv);
  std::cout << "geometric-mean miss reduction vs naive: "
            << Table::ratio(geometric_mean(reductions), 2) << "\n";
  return 0;
}
