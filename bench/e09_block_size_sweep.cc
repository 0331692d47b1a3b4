// E9 -- block size scaling (the 1/B in every bound).
//
// All of the paper's bounds carry a 1/B factor: cross-edge tokens stream
// through the cache at one miss per block. Sweep B at fixed M on the
// partitioned pipeline schedule. Expected shape: misses/output roughly
// halves per doubling of B while streaming dominates; the product
// (misses/output * B) stays near-constant.

#include "bench/common.h"
#include "workloads/pipelines.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 1024;
  const std::int64_t outputs = 4096;
  const auto g = workloads::uniform_pipeline(24, 256);

  Table t("E9: block size sweep (pipeline 24x256, M=1024, sim 4M)");
  t.set_header({"B", "misses/output", "misses/output * B"});
  for (const std::int64_t b : {4, 8, 16, 32, 64}) {
    core::PlannerOptions opts;
    opts.cache.capacity_words = m;
    opts.cache.block_words = b;
    const auto plan = core::Planner(g, opts).plan();
    const auto r = bench::run(g, plan.schedule, 4 * m, b, outputs);
    t.add_row({Table::num(b), Table::num(r.misses_per_output(), 3),
               Table::num(r.misses_per_output() * static_cast<double>(b), 2)});
  }
  bench::emit(t, csv);
  return 0;
}
