// E10 -- the headline per-application table.
//
// Every StreamIt-style app at one fixed geometry: partition statistics
// (components, bandwidth, batch T) and the naive-vs-partitioned miss
// reduction. This is the shape of the summary tables in the empirical
// cache-aware-scheduling literature the paper cites [15, 21, 25]; Moonen et
// al. report >4x reductions on a real multimedia workload, and the
// partitioned scheduler should land in that territory on the apps whose
// state far exceeds the cache.

#include "bench/common.h"
#include "schedule/naive.h"
#include "workloads/streamit.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t b = 8;
  const std::int64_t outputs = 1024;

  Table t("E10: per-app summary (M = max(total/6, max module), B=8, sim 4M)");
  t.set_header({"app", "modules", "state", "M", "comps", "bandwidth", "batch T",
                "naive", "partitioned", "reduction"});
  t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight, Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (const auto& app : workloads::streamit_suite()) {
    const auto& g = app.graph;
    const std::int64_t m = std::max(g.total_state() / 6, g.max_state());
    core::PlannerOptions opts;
    opts.cache.capacity_words = m;
    opts.cache.block_words = b;
    const auto plan = core::Planner(g, opts).plan();
    const auto r_naive =
        bench::run(g, schedule::naive_minimal_buffer_schedule(g), 4 * m, b, outputs);
    const auto r_part = bench::run(g, plan.schedule, 4 * m, b, outputs);
    t.add_row({app.name, Table::num(static_cast<std::int64_t>(g.node_count())),
               Table::num(g.total_state()), Table::num(m),
               Table::num(static_cast<std::int64_t>(plan.partition.num_components)),
               plan.partition_bandwidth.to_string(), Table::num(plan.batch_t),
               Table::num(r_naive.misses_per_output(), 2),
               Table::num(r_part.misses_per_output(), 2),
               bench::safe_ratio(r_naive.misses_per_output(), r_part.misses_per_output(), 1)});
  }
  bench::emit(t, csv);
  return 0;
}
