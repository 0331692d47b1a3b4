// E13 -- multi-level hierarchies (extension; Savage [24] generalizes the
// paper's two-level model).
//
// Run naive and partitioned schedules through an L1/L2 hierarchy where the
// partition targets the L2 size. Expected shape: partitioning leaves L1
// behaviour roughly unchanged (module-local traffic dominates L1) but
// slashes L2->memory transfers -- the level whose misses the paper's bounds
// govern. The per-level table also shows where each scheduler's traffic is
// absorbed.

#include "bench/common.h"
#include "iomodel/hierarchy.h"
#include "runtime/engine.h"
#include "schedule/naive.h"
#include "workloads/pipelines.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t b = 8;
  const std::int64_t l1 = 256;
  const std::int64_t l2 = 2048;
  const std::int64_t outputs = 4096;
  const auto g = workloads::uniform_pipeline(24, 256);  // 6144 words of state

  core::PlannerOptions opts;
  opts.cache.capacity_words = l2 / 4;  // partition for (a fraction of) L2
  opts.cache.block_words = b;
  const auto plan = core::Planner(g, opts).plan();
  const auto naive = schedule::naive_minimal_buffer_schedule(g);

  Table t("E13: L1/L2 hierarchy (L1=256, L2=2048 words, B=8)");
  t.set_header({"scheduler", "L1 misses", "L2 misses (memory)", "L1 miss rate",
                "mem transfers/output"});
  t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (const auto* s : {&naive, &plan.schedule}) {
    iomodel::HierarchyCache cache({l1, l2}, b);
    runtime::Engine engine(g, s->buffer_caps, cache);
    runtime::RunResult total;
    const auto rounds = schedule::periods_for_outputs(*s, outputs);
    for (std::int64_t i = 0; i < rounds; ++i) {
      total += engine.run(s->period);
    }
    const auto& l1s = cache.level_stats(0);
    const auto& l2s = cache.level_stats(1);
    t.add_row({s->name, Table::num(l1s.misses), Table::num(l2s.misses),
               Table::num(l1s.miss_rate(), 4),
               Table::num(static_cast<double>(l2s.misses) /
                              static_cast<double>(total.sink_firings),
                          3)});
  }
  bench::emit(t, csv);
  return 0;
}
