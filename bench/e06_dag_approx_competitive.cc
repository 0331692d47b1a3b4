// E6 -- approximation quality transfers to schedule quality (Corollary 9).
//
// For one small dag, build partitions of increasing bandwidth (exact <=
// refined <= greedy <= singletons), schedule each, and report alpha =
// bw(P)/bw(OPT) next to the measured miss ratio vs the exact partition's
// schedule. Expected shape: the miss ratio tracks alpha (an
// alpha-approximate partition yields an O(alpha)-competitive schedule).

#include "bench/common.h"
#include "partition/agglomerative.h"
#include "partition/dag_exact.h"
#include "partition/dag_greedy.h"
#include "partition/dag_refine.h"
#include "schedule/partitioned.h"
#include "sdf/gain.h"
#include "sdf/min_buffer.h"
#include "util/rng.h"
#include "workloads/random_dag.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 512;
  const std::int64_t b = 8;
  const std::int64_t outputs = 4096;
  Rng rng(606);
  workloads::LayeredSpec spec;
  spec.layers = 4;
  spec.width = 3;
  spec.state_lo = 250;
  spec.state_hi = 450;
  const auto g = workloads::layered_homogeneous_dag(spec, rng);
  const sdf::GainMap gains(g);
  const std::int64_t bound = 3 * m;

  partition::ExactOptions eopts;
  eopts.state_bound = bound;
  const auto exact = partition::dag_exact_partition(g, eopts);
  if (!exact.has_value()) {
    std::cout << "E6: exact partitioner exceeded budget; graph too large\n";
    return 0;
  }

  struct Entry {
    std::string name;
    partition::Partition partition;
  };
  std::vector<Entry> entries;
  entries.push_back({"exact", exact->partition});
  entries.push_back({"agglomerative", partition::agglomerative_partition(g, bound)});
  partition::RefineOptions ropts;
  ropts.state_bound = bound;
  entries.push_back({"refined", partition::refine_partition(
                                    g, partition::dag_greedy_partition(g, bound), ropts)});
  entries.push_back({"greedy", partition::dag_greedy_partition(g, bound)});
  entries.push_back({"singletons", partition::Partition::singletons(g)});

  schedule::PartitionedOptions sopts;
  sopts.m = m;
  double exact_misses = 0;

  Table t("E6: bandwidth ratio alpha vs measured miss ratio (layered dag, M=512, B=8)");
  t.set_header({"partition", "bandwidth", "alpha", "misses/output", "miss ratio"});
  t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (const auto& entry : entries) {
    const auto sched = schedule::partitioned_schedule(g, entry.partition, sopts, sdf::feasible_buffers(g));
    const auto r = bench::run(g, sched, 4 * m, b, outputs);
    const auto bw = partition::bandwidth(g, gains, entry.partition);
    if (entry.name == "exact") exact_misses = r.misses_per_output();
    t.add_row({entry.name, bw.to_string(),
               bench::safe_ratio(bw.to_double(), exact->bandwidth.to_double()),
               Table::num(r.misses_per_output(), 3),
               bench::safe_ratio(r.misses_per_output(), exact_misses)});
  }
  bench::emit(t, csv);
  return 0;
}
