// E15 -- ablation: packed vs block-aligned channel buffers.
//
// The paper assumes sum(minBuf) = O(component state) so internal buffers
// ride along with the state in cache. That assumption is about *tokens*;
// a runtime that block-aligns every one-word channel silently multiplies
// the footprint by B and can push components out of cache. This ablation
// measures exactly that design decision on the FFT butterfly (many unit
// channels). Expected shape: aligned buffers inflate misses by an order of
// magnitude at tight cache sizes; packed buffers match the cost model.

#include "bench/common.h"
#include "iomodel/cache.h"
#include "runtime/engine.h"
#include "schedule/naive.h"
#include "workloads/streamit.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t b = 8;
  const std::int64_t outputs = 1024;
  const auto g = workloads::fft(4);
  const std::int64_t m = std::max(g.total_state() / 6, g.max_state());

  core::PlannerOptions opts;
  opts.cache.capacity_words = m;
  opts.cache.block_words = b;
  const auto plan = core::Planner(g, opts).plan();

  Table t("E15: buffer layout ablation on FFT (M=" + std::to_string(m) +
          ", B=8, sim 4M)");
  t.set_header({"buffer layout", "misses/output", "state misses", "channel misses"});
  t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
  for (const bool aligned : {false, true}) {
    iomodel::LruCache cache(iomodel::CacheConfig{4 * m, b});
    runtime::EngineOptions eopts;
    eopts.block_align_buffers = aligned;
    runtime::Engine engine(g, plan.schedule.buffer_caps, cache, eopts);
    runtime::RunResult total;
    const auto rounds = schedule::periods_for_outputs(plan.schedule, outputs);
    for (std::int64_t i = 0; i < rounds; ++i) {
      total += engine.run(plan.schedule.period);
    }
    t.add_row({aligned ? "block-aligned" : "packed (default)",
               Table::num(total.misses_per_output(), 3), Table::num(total.state_misses),
               Table::num(total.channel_misses)});
  }
  bench::emit(t, csv);
  return 0;
}
