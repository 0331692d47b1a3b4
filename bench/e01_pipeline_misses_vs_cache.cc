// E1 -- misses/output vs cache size on a synthetic pipeline (Thm 5 / Cor 6).
//
// Workload: 24-stage uniform pipeline, 256 words of state per module
// (6144 words total). Sweep M; every scheduler runs on the same 4M
// simulation cache. Expected shape: partitioned beats every baseline while
// total state exceeds the cache, and the advantage grows as M shrinks;
// once 4M swallows the whole working set all schedulers converge.

#include "bench/common.h"
#include "schedule/kohli.h"
#include "schedule/naive.h"
#include "schedule/scaled.h"
#include "workloads/pipelines.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const auto g = workloads::uniform_pipeline(24, 256);
  const std::int64_t b = 8;
  const std::int64_t outputs = 4096;

  Table t("E1: misses/output vs cache size M (pipeline, 24x256 words, B=8, sim cache 4M)");
  t.set_header({"M", "naive", "sas", "scaled", "kohli", "partitioned", "naive/part"});
  for (const std::int64_t m : {256, 512, 1024, 2048}) {
    core::PlannerOptions opts;
    opts.cache.capacity_words = m;
    opts.cache.block_words = b;
    const auto plan = core::Planner(g, opts).plan();
    const auto r_naive =
        bench::run(g, schedule::naive_minimal_buffer_schedule(g), 4 * m, b, outputs);
    const auto r_sas =
        bench::run(g, schedule::naive_single_appearance_schedule(g), 4 * m, b, outputs);
    const auto r_scaled = bench::run(g, schedule::scaled_schedule(g, m), 4 * m, b, outputs);
    const auto r_kohli = bench::run(g, schedule::kohli_schedule(g, m), 4 * m, b, outputs);
    const auto r_part = bench::run(g, plan.schedule, 4 * m, b, outputs);
    t.add_row({Table::num(m), Table::num(r_naive.misses_per_output(), 3),
               Table::num(r_sas.misses_per_output(), 3),
               Table::num(r_scaled.misses_per_output(), 3),
               Table::num(r_kohli.misses_per_output(), 3),
               Table::num(r_part.misses_per_output(), 3),
               bench::safe_ratio(r_naive.misses_per_output(), r_part.misses_per_output(), 1)});
  }
  bench::emit(t, csv);
  return 0;
}
