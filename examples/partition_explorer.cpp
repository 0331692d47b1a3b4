// Partition explorer: load a streaming graph from a text file (or generate a
// random one) and run partitioners from the registry on it, printing a
// quality report. Useful for understanding what the partitioners do to
// *your* graph before committing to a schedule.
//
//   $ ./partition_explorer --file=app.sdf --cache-words=1024
//   $ ./partition_explorer --random-nodes=24 --seed=7 --dump
//   $ ./partition_explorer --partitioner=dag-refined        # just one
//   $ ./partition_explorer --partitioner=help               # list keys
//
// The strategy set comes from partition::Registry: by default every
// strategy applicable to the graph runs; --partitioner=<name> selects one
// (any registered key, including custom strategies), and an unknown name
// fails with the registry's list of valid keys.
//
// Graph file format (see src/sdf/serialize.h):
//   node <name> state=<words>
//   edge <src> -> <dst> out=<rate> in=<rate>

#include <fstream>
#include <iostream>

#include "core/planner.h"
#include "partition/dot.h"
#include "partition/registry.h"
#include "sdf/gain.h"
#include "sdf/serialize.h"
#include "sdf/validate.h"
#include "util/args.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/table.h"
#include "workloads/random_dag.h"

int main(int argc, char** argv) {
  using namespace ccs;
  ArgParser args("partition_explorer", "run registry partitioners on a graph and report quality");
  args.add_string("file", "", "graph file to load (empty: generate random)");
  args.add_int("random-nodes", 24, "node budget for the generated graph");
  args.add_int("seed", 1, "random generator seed");
  args.add_int("cache-words", 1024, "cache size M in words");
  args.add_double("c-bound", 3.0, "components hold at most c*M state");
  args.add_string("partitioner", "",
                  "registry key to run (empty: every applicable; 'help': list keys)");
  args.add_flag("dump", "print the graph in serialized form");
  args.add_string("dot", "", "write the best partition as Graphviz DOT to this file");
  try {
    if (!args.parse(argc, argv)) return 0;
    const std::int64_t m = args.get_int("cache-words");
    if (m < 1) throw Error("--cache-words must be >= 1");
    const double c_bound = args.get_double("c-bound");
    core::validate_word_factor(c_bound, m, "--c-bound");

    auto& registry = partition::Registry::global();
    if (args.get_string("partitioner") == "help") {
      std::cout << "registered partitioners:\n";
      for (const auto& key : registry.keys()) {
        std::cout << "  " << key << "  -- " << registry.find(key).description << "\n";
      }
      return 0;
    }

    sdf::SdfGraph g;
    if (const auto& path = args.get_string("file"); !path.empty()) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
      }
      g = sdf::read_graph(in);
    } else {
      Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
      workloads::SeriesParallelSpec spec;
      spec.target_nodes = static_cast<std::int32_t>(args.get_int("random-nodes"));
      g = workloads::series_parallel_dag(spec, rng);
    }
    sdf::validate_or_throw(g, sdf::ValidationOptions{});
    if (args.get_flag("dump")) sdf::write_graph(g, std::cout);
    std::cout << "graph: " << g << "\n\n";

    partition::StrategyContext ctx;
    ctx.cache_words = m;
    ctx.state_bound = static_cast<std::int64_t>(c_bound * static_cast<double>(m));
    ctx.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const sdf::GainMap gains(g);

    // One explicit key, or every strategy the registry deems applicable.
    // Registry::build throws for unknown keys with the valid key list in
    // the message, which is exactly what we want on stderr.
    std::vector<std::string> names;
    if (const auto& one = args.get_string("partitioner"); !one.empty()) {
      names.push_back(one);
    } else {
      names = registry.applicable_keys(g, ctx);
    }

    Table t("partitions at state bound " + std::to_string(ctx.state_bound) + " (M=" +
            std::to_string(m) + ")");
    t.set_header({"partitioner", "components", "bandwidth", "max state", "well-ordered"});
    t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight});

    partition::Partition best;
    Rational best_bw;
    bool have_best = false;
    for (const auto& name : names) {
      const auto p = registry.build(name, g, ctx);
      const auto q = partition::measure(g, gains, p);
      t.add_row({name, Table::num(static_cast<std::int64_t>(q.num_components)),
                 q.bandwidth.to_string(), Table::num(q.max_state),
                 q.well_ordered ? "yes" : "NO"});
      if (q.well_ordered && (!have_best || q.bandwidth < best_bw)) {
        best = p;
        best_bw = q.bandwidth;
        have_best = true;
      }
    }
    t.print(std::cout);

    if (const auto& dot_path = args.get_string("dot"); !dot_path.empty()) {
      if (!have_best) {
        std::cerr << "no well-ordered partition to export; skipping --dot=" << dot_path
                  << "\n";
        return 1;
      }
      std::ofstream out(dot_path);
      partition::write_dot(g, best, out);
      std::cout << "\nwrote " << dot_path << " (render with: dot -Tsvg " << dot_path
                << " -o partition.svg)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
