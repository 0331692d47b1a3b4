// E7 -- batch granularity T on inhomogeneous graphs (Section 3).
//
// The T-granularity scheduler may pick any legal T (divisibility + at least
// M tokens per cross edge); larger T means larger cross buffers but more
// amortization of component loads. Sweep the T multiplier on a multirate
// pipeline. Expected shape: misses/output decreases slightly then flattens
// (state term ~1/T), while buffer memory grows linearly in T -- the paper's
// reason to leave buffer minimization "an interesting open problem".

#include "bench/common.h"
#include "partition/pipeline_dp.h"
#include "schedule/partitioned.h"
#include "sdf/min_buffer.h"
#include "util/rng.h"
#include "workloads/pipelines.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 512;
  const std::int64_t b = 8;
  const std::int64_t outputs = 4096;
  Rng rng(707);
  const auto g = workloads::random_pipeline(20, 64, 300, 3, rng);
  const auto dp = partition::pipeline_optimal_partition(g, 3 * m);

  Table t("E7: T multiplier sweep on a multirate pipeline (M=512, B=8, sim 8M)");
  t.set_header({"T mult", "batch T", "buffer words", "misses/output"});
  for (const std::int64_t mult : {1, 2, 4, 8}) {
    schedule::PartitionedOptions sopts;
    sopts.m = m;
    sopts.t_multiplier = mult;
    const auto sched = schedule::partitioned_schedule(g, dp.partition, sopts, sdf::feasible_buffers(g));
    const auto r = bench::run(g, sched, 8 * m, b, outputs);
    t.add_row({Table::num(mult), Table::num(schedule::compute_batch_t(g, sopts)),
               Table::num(sched.total_buffer_words()),
               Table::num(r.misses_per_output(), 3)});
  }
  bench::emit(t, csv);
  return 0;
}
