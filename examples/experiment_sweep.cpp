// Scenario-sweep driver: run a workloads x cache-sizes x partitioners (x
// baselines) grid through core::Experiment's thread pool and emit the
// result as a table, CSV, or JSON.
//
//   $ ./experiment_sweep                         # default paper-style grid
//   $ ./experiment_sweep --threads=8 --csv
//   $ ./experiment_sweep --workloads=FMRadio,DES --cache-words=256,512
//         --partitioners=auto,dag-greedy --baselines=naive --json
//   $ ./experiment_sweep --list                  # show registry keys
//
// Every coordinate is a registry key, so workloads and strategies
// registered by an application are sweepable here with no code changes.
// Cells that fail (inapplicable strategy, unknown key, no bounded
// partition) are reported per cell; the sweep itself always completes.

#include <cstdint>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/experiment.h"
#include "partition/registry.h"
#include "workloads/arrivals.h"
#include "schedule/registry.h"
#include "util/args.h"
#include "util/error.h"
#include "util/table.h"
#include "workloads/registry.h"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// `v`, a value of flag `--name`, as a count: it must fit an int32 (a count
/// outside it is an error, not a truncated count).
std::int32_t as_count(std::int64_t v, const std::string& name) {
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) {
    throw ccs::Error("flag --" + name + " value " + std::to_string(v) + " is out of range");
  }
  return static_cast<std::int32_t>(v);
}

/// `--name`'s integer list as counts.
std::vector<std::int32_t> count_list(const ccs::ArgParser& args, const std::string& name) {
  std::vector<std::int32_t> out;
  for (const std::int64_t v : args.get_int_list(name)) out.push_back(as_count(v, name));
  return out;
}

/// `--name`'s integer as a count.
std::int32_t count(const ccs::ArgParser& args, const std::string& name) {
  return as_count(args.get_int(name), name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccs;
  ArgParser args("experiment_sweep", "parallel scenario sweep over the registries");
  args.add_string("workloads", "uniform-pipeline,FMRadio",
                  "comma-separated workload registry keys");
  args.add_int_list("cache-words", {256, 512, 1024}, "comma-separated cache sizes M (words)");
  args.add_int("block-words", 8, "block size B in words");
  args.add_string("partitioners", "auto,dag-greedy,dag-refined,agglomerative",
                  "comma-separated partitioner registry keys");
  args.add_string("baselines", "", "comma-separated baseline scheduler registry keys");
  args.add_int_list("t-multipliers", {1}, "comma-separated batch multipliers");
  args.add_int("outputs", 1024, "sink firings per cell");
  args.add_int("threads", 1, "worker threads for the sweep");
  args.add_int("repetitions", 1, "measurements per cell (each from a fresh cache; all must agree)");
  args.add_double("sim-factor", 4.0, "simulate on sim-factor * M (memory augmentation)");
  args.add_string("cluster-arrivals", "",
                  "comma-separated arrival keys enabling multicore cluster cells");
  args.add_int_list("cluster-workers", {1, 2, 4}, "comma-separated cluster worker counts");
  args.add_int_list("cluster-tenants", {4}, "comma-separated cluster tenant counts");
  args.add_string("cluster-placements", "round-robin",
                  "comma-separated placement registry keys (round-robin, "
                  "least-loaded, affinity, adaptive)");
  args.add_string("cluster-cost-models", "uniform",
                  "comma-separated latency cost models for cluster cells "
                  "(uniform, two-level, llc-shared)");
  args.add_int("cluster-slo-p99", 0,
               "per-step p99 latency target in modeled cycles for cluster "
               "cells (0 = no SLO)");
  args.add_int("cluster-ticks", 64, "arrival ticks per cluster cell");
  args.add_int("cluster-llc-factor", 8,
               "shared LLC as a multiple of the per-worker L1 (0 = no LLC)");
  args.add_int("cluster-llc-shards", 1, "shared LLC lock stripes (power of two >= 1)");
  args.add_int("cluster-churn", 0,
               "churn mode: logical sessions per cluster cell (0 = steady "
               "tick loop; > 0 replaces it with an open/push/close trace)");
  args.add_int("cluster-churn-max-live", 8,
               "concurrent-open bound of the churn trace");
  args.add_int("cluster-max-live-sessions", 0,
               "bounded-live admission budget for cluster cells (0 = unbounded)");
  args.add_flag("cluster-swap", "enable the idle-session swap tier in cluster cells");
  args.add_flag("csv", "emit CSV");
  args.add_flag("json", "emit JSON");
  args.add_flag("list", "list registry keys and exit");
  try {
    if (!args.parse(argc, argv)) return 0;

    if (args.get_flag("list")) {
      std::cout << "workloads:";
      for (const auto& k : workloads::Registry::global().keys()) std::cout << " " << k;
      std::cout << "\npartitioners: auto";
      for (const auto& k : partition::Registry::global().keys()) std::cout << " " << k;
      std::cout << "\nbaselines:";
      for (const auto& k : schedule::Registry::global().keys()) std::cout << " " << k;
      std::cout << "\narrivals:";
      for (const auto& k : workloads::ArrivalRegistry::global().keys()) std::cout << " " << k;
      std::cout << "\nplacements:";
      for (const auto& k : core::PlacementRegistry::global().keys()) std::cout << " " << k;
      std::cout << "\n";
      return 0;
    }

    core::SweepSpec spec;
    spec.workloads = split_csv(args.get_string("workloads"));
    for (const std::int64_t m : args.get_int_list("cache-words")) {
      spec.caches.push_back({m, args.get_int("block-words")});
    }
    spec.partitioners = split_csv(args.get_string("partitioners"));
    spec.baselines = split_csv(args.get_string("baselines"));
    spec.t_multipliers = args.get_int_list("t-multipliers");
    spec.target_outputs = args.get_int("outputs");
    spec.repetitions = count(args, "repetitions");
    spec.sim_capacity_factor = args.get_double("sim-factor");
    spec.cluster.arrivals = split_csv(args.get_string("cluster-arrivals"));
    spec.cluster.worker_counts = count_list(args, "cluster-workers");
    spec.cluster.tenant_counts = count_list(args, "cluster-tenants");
    spec.cluster.placements = split_csv(args.get_string("cluster-placements"));
    spec.cluster.cost_models = split_csv(args.get_string("cluster-cost-models"));
    spec.cluster.slo_p99 = args.get_int("cluster-slo-p99");
    spec.cluster.ticks = args.get_int("cluster-ticks");
    spec.cluster.llc_factor = args.get_int("cluster-llc-factor");
    spec.cluster.llc_shards = count(args, "cluster-llc-shards");
    spec.cluster.churn_sessions = args.get_int("cluster-churn");
    spec.cluster.churn_max_live = args.get_int("cluster-churn-max-live");
    if (args.get_int("cluster-max-live-sessions") > 0) {
      spec.cluster.admission = "bounded-live";
      spec.cluster.max_live_sessions = args.get_int("cluster-max-live-sessions");
    }
    spec.cluster.swap = args.get_flag("cluster-swap");

    const core::Experiment experiment(spec);
    const auto result = experiment.run(count(args, "threads"));

    if (args.get_flag("csv")) {
      result.write_csv(std::cout);
    } else if (args.get_flag("json")) {
      result.write_json(std::cout);
    } else {
      Table t(std::to_string(result.cells.size()) + " cells, " +
              std::to_string(result.threads) + " threads, " +
              Table::num(result.wall_seconds, 2) + "s");
      t.set_header({"workload", "M", "strategy", "T-mult", "components", "predicted m/i",
                    "measured m/i", "status"});
      t.set_align({Align::kLeft, Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kLeft});
      for (const auto& c : result.cells) {
        t.add_row({c.workload, Table::num(c.cache.capacity_words),
                   c.is_cluster ? c.placement + " (cluster " +
                                      std::to_string(c.workers) + "w x " +
                                      std::to_string(c.tenants) + "t)"
                                : c.strategy + (c.is_baseline ? " (baseline)" : ""),
                   Table::num(c.t_multiplier),
                   c.ok && !c.is_baseline
                       ? Table::num(static_cast<std::int64_t>(c.components))
                       : "-",
                   c.ok && !c.is_baseline ? Table::num(c.predicted_misses_per_input, 4) : "-",
                   c.ok ? Table::num(c.misses_per_input, 4) : "-",
                   c.ok ? "ok" : c.error});
      }
      t.print(std::cout);
      if (result.failed_cells() > 0) {
        std::cout << "\n" << result.failed_cells() << " cell(s) failed (see status column)\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
