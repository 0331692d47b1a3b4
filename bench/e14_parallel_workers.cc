// E14 -- parallel asynchronous component scheduling (extension; Sections 3
// and 7 of the paper).
//
// The homogeneous component schedule generalizes to P asynchronous workers
// with private caches. Sweep P on a wide layered dag. Expected shape
// (paper Section 7): total misses stay near the uniprocessor count (misses
// are a schedule property, parallelism only adds per-worker reloads), while
// makespan drops until the partition's component parallelism is exhausted.
//
// The simulator is core::simulate_parallel_on_pool: the homogeneous-m-batch
// online policy claims components and one runtime::Engine runs each batch
// on the claiming worker's private cache of a runtime::WorkerPool -- the
// same worker caches the core::Cluster serving stack shards sessions onto
// (tests/schedule/parallel_golden_test.cc pins its counters).
// `--llc-words=N` backs the workers with a shared LLC and adds its traffic
// to the table; `--json` emits one schedule::write_parallel_json line per
// worker count so CI can diff repeat runs exactly like sweep CSVs.

#include <exception>
#include <iostream>
#include <string>

#include "bench/common.h"
#include "core/cluster.h"
#include "partition/dag_greedy.h"
#include "runtime/worker_pool.h"
#include "schedule/serialize.h"
#include "util/args.h"
#include "util/rng.h"
#include "workloads/random_dag.h"

int main(int argc, char** argv) {
  using namespace ccs;
  ArgParser args("e14_parallel_workers", "parallel workers on a wide homogeneous dag");
  args.add_flag("json", "emit one JSON result line per worker count");
  args.add_flag("csv", "emit CSV instead of an aligned table");
  args.add_int("llc-words", 0, "shared LLC capacity in words (0 = no shared LLC)");
  try {
    if (!args.parse(argc, argv)) return 0;
    const bool json = args.get_flag("json");
    const std::int64_t llc_words = args.get_int("llc-words");

    Rng rng(1414);
    workloads::LayeredSpec spec;
    spec.layers = 4;
    spec.width = 6;
    spec.state_lo = 150;
    spec.state_hi = 300;
    spec.edge_prob = 0.15;
    const auto g = workloads::layered_homogeneous_dag(spec, rng);
    const std::int64_t m = 128;          // batch tokens per cross edge
    const std::int64_t cache_words = 4096;
    const auto p = partition::dag_greedy_partition(g, 900);

    Table t("E14: parallel workers on a wide homogeneous dag (26 modules, " +
            std::to_string(p.num_components) + " components" +
            (llc_words > 0 ? ", shared " + std::to_string(llc_words) + "-word LLC" : "") +
            ")");
    t.set_header({"workers", "makespan", "speedup", "total misses", "misses vs 1w",
                  "imbalance", "LLC misses"});
    std::int64_t base_makespan = 0;
    std::int64_t base_misses = 0;
    for (const std::int32_t workers : {1, 2, 4, 8}) {
      runtime::WorkerPool pool(
          runtime::WorkerPoolOptions{workers, {cache_words, 8}, llc_words});
      const auto r = core::simulate_parallel_on_pool(g, p, m, pool, 4096);
      if (json) {
        schedule::write_parallel_json(r, std::cout);
        std::cout << "\n";
      }
      if (workers == 1) {
        base_makespan = r.makespan;
        base_misses = r.total_misses;
      }
      t.add_row({Table::num(static_cast<std::int64_t>(workers)), Table::num(r.makespan),
                 bench::safe_ratio(static_cast<double>(base_makespan),
                                   static_cast<double>(r.makespan)),
                 Table::num(r.total_misses),
                 bench::safe_ratio(static_cast<double>(r.total_misses),
                                   static_cast<double>(base_misses)),
                 Table::num(r.imbalance(), 2),
                 llc_words > 0 ? Table::num(r.llc.misses) : "-"});
    }
    if (!json) {
      if (args.get_flag("csv")) t.print_csv(std::cout);
      else t.print(std::cout);
      std::cout << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
