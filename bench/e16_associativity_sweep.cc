// E16 -- robustness to realistic cache geometry (extension).
//
// Every theorem assumes an ideal (fully associative) cache; real hardware
// is set-associative. Sweep associativity from direct-mapped to fully
// associative on the same schedules. Expected shape: the naive-vs-
// partitioned ordering survives at every associativity, with conflict
// misses inflating both sides as ways shrink -- evidence the paper's
// conclusions transfer to commodity hardware.

#include "bench/common.h"
#include "iomodel/cache.h"
#include "runtime/engine.h"
#include "schedule/naive.h"
#include "workloads/pipelines.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 512;
  const std::int64_t b = 8;
  const std::int64_t sim_words = 4 * m;
  const std::int64_t outputs = 2048;
  const auto g = workloads::uniform_pipeline(24, 256);

  core::PlannerOptions opts;
  opts.cache.capacity_words = m;
  opts.cache.block_words = b;
  const auto plan = core::Planner(g, opts).plan();
  const auto naive = schedule::naive_minimal_buffer_schedule(g);

  auto run_with = [&](const schedule::Schedule& s, std::int32_t ways) {
    // ways == 0 encodes fully associative.
    std::unique_ptr<iomodel::CacheSim> cache;
    if (ways == 0) cache = iomodel::make_lru(sim_words, b);
    else cache = iomodel::make_set_associative(sim_words, b, ways);
    runtime::Engine engine(g, s.buffer_caps, *cache);
    runtime::RunResult total;
    const auto rounds = schedule::periods_for_outputs(s, outputs);
    for (std::int64_t i = 0; i < rounds; ++i) {
      total += engine.run(s.period);
    }
    return total;
  };

  Table t("E16: associativity sweep (pipeline 24x256, cache 2048 words, B=8)");
  t.set_header({"ways", "naive", "partitioned", "naive/part"});
  for (const std::int32_t ways : {1, 2, 4, 8, 16, 0}) {
    const auto r_naive = run_with(naive, ways);
    const auto r_part = run_with(plan.schedule, ways);
    t.add_row({ways == 0 ? "full" : Table::num(static_cast<std::int64_t>(ways)),
               Table::num(r_naive.misses_per_output(), 3),
               Table::num(r_part.misses_per_output(), 3),
               bench::safe_ratio(r_naive.misses_per_output(), r_part.misses_per_output(), 1)});
  }
  bench::emit(t, csv);
  return 0;
}
