// ccs_perfbench -- the repository benchmark.
//
//   ccs_perfbench --workload <plan-sweep|serve-steady|serve-churn> --seed <n>
//                 --seconds <s> --trace <0|1> [--out-dir <dir>]
//                 [--git-sha <sha>] [--source-sha <digest>]
//
// One process, one thread, virtual-time Cluster only. --trace 0 measures
// the end-to-end metrics with tracing off. --trace 1 measures them once
// with tracing off and once with it on (the difference is the tracing
// overhead), then runs the layer ladder, and reports the per-layer metrics
// derived from the spans and the model counters. Both modes check the
// outputs; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and any failed operation
// or check makes the exit code 1. A record of the run (stamp, metrics,
// span self times, failures) goes to <out-dir>, and the traced run also
// writes its spans there as Chrome trace-event JSON.
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

/// Every per-layer metric a traced run reports, with its unit. A metric
/// ending in "_s" is the time per pass spent in the span of the same name.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"workloads.gen_s", "s"},
    {"core.planner.ctor_s", "s"},
    {"core.planner.plan_s", "s"},
    {"core.planner.compare_s", "s"},
    {"partition.components_mean", "count"},
    {"analysis.bound_ratio", "ratio"},
    {"core.simulate_s", "s"},
    {"runtime.firings", "count"},
    {"iomodel.l1.accesses", "count"},
    {"iomodel.l1.misses", "count"},
    {"iomodel.l1.writebacks", "count"},
    {"iomodel.llc.accesses", "count"},
    {"iomodel.llc.misses", "count"},
    {"iomodel.probes_per_s", "1/s"},
    {"core.cluster.push_s", "s"},
    {"core.cluster.run_s", "s"},
    {"core.cluster.drain_s", "s"},
    {"core.cluster.report_s", "s"},
    {"core.cluster.steps", "count"},
    {"core.cluster.rounds", "count"},
    {"core.cluster.utilization", "ratio"},
    {"placement.migrations", "count"},
    {"placement.auto_migrations", "count"},
    {"latency.p50_cycles", "cycles"},
    {"latency.p99_cycles", "cycles"},
    {"latency.slo_attained", "ratio"},
    {"core.cluster.admit_s", "s"},
    {"core.cluster.close_s", "s"},
    {"core.cluster.swap_out_s", "s"},
    {"session.swap_outs", "count"},
    {"session.swap_ins", "count"},
    {"session.peak_live", "count"},
    {"session.peak_resident_words", "words"},
    {"session.swap_peak_stored_bytes", "bytes"},
    {"session.rehydrate_ratio", "ratio"},
    {"ladder.simulate.firings_per_s", "firings/s"},
    {"ladder.simulate.probes_per_s", "1/s"},
    {"ladder.stream.firings_per_s", "firings/s"},
    {"ladder.stream.probes_per_s", "1/s"},
    {"ladder.cluster1.firings_per_s", "firings/s"},
    {"ladder.cluster1.probes_per_s", "1/s"},
    {"ladder.cluster4.firings_per_s", "firings/s"},
    {"ladder.cluster4.probes_per_s", "1/s"},
    {"ladder.cluster4_cost.firings_per_s", "firings/s"},
    {"ladder.cluster4_cost.probes_per_s", "1/s"},
    {"ladder.cluster4_adaptive.firings_per_s", "firings/s"},
    {"ladder.cluster4_adaptive.probes_per_s", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::runtime_error("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--source-sha") {
      a.source_sha = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  return a;
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    out += (out.size() > 1 ? ", " : "") + quoted(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + quoted(metric.unit) + "}";
  }
  return out + "}";
}

/// Per-pass timings of a phase: [setup_s, tick seconds, ticks, firings].
std::string passes_json(const Phase& phase) {
  std::string out = "[";
  for (const PassTiming& p : phase.passes) {
    double busy = 0.0;
    for (const double t : p.tick_s) busy += t;
    out += (out.size() > 1 ? ", [" : "[") + number(p.setup_s) + ", " + number(busy) + ", " +
           std::to_string(p.tick_s.size()) + ", " + std::to_string(p.firings) + "]";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ccs_perfbench: " << e.what() << "\n";
    return 2;
  }
  const std::map<std::string, std::function<std::unique_ptr<Workload>(std::uint64_t)>> factories = {
      {"plan-sweep", make_plan_sweep},
      {"serve-steady", make_serve_steady},
      {"serve-churn", make_serve_churn},
  };
  const auto factory = factories.find(args.workload);
  if (factory == factories.end()) {
    std::cerr << "ccs_perfbench: unknown workload '" << args.workload
              << "' (plan-sweep, serve-steady, serve-churn)\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = factory->second(args.seed);

  Checks checks;
  const auto touch_start = Clock::now();
  workload->first_touch();
  const double first_touch_s = seconds_between(touch_start, Clock::now());
  constexpr std::int64_t kMinTicks = 1000;

  Metrics result;
  Metrics untraced;
  Metrics traced;
  std::map<std::string, Tracer::NameTotals> spans;
  std::string passes;
  std::string traced_passes = "[]";
  if (!args.trace) {
    const Phase phase = measure(*workload, args.seconds, kMinTicks, checks);
    passes = passes_json(phase);
    wall_metrics(phase, first_touch_s, untraced);
    workload->model_metrics(untraced);
    untraced["peak_rss_mb"] = {phase.peak_rss_mb, "MB"};
    result = untraced;
  } else {
    const Phase plain = measure(*workload, 0.4 * args.seconds, kMinTicks, checks);
    passes = passes_json(plain);
    wall_metrics(plain, first_touch_s, untraced);
    workload->model_metrics(untraced);
    Tracer::instance().enable();
    const Phase phase = measure(*workload, 0.4 * args.seconds, kMinTicks, checks);
    traced_passes = passes_json(phase);
    wall_metrics(phase, first_touch_s, traced);
    workload->model_metrics(traced);
    checks.expect(traced.at("misses_per_output").value == untraced.at("misses_per_output").value,
                  "misses_per_output differs between the traced and untraced phases");
    spans = Tracer::instance().totals();
    run_ladder(args.seed, checks, result);

    const auto traced_count = static_cast<double>(phase.passes.size());
    for (const auto& [name, unit] : kLayerMetrics) {
      if (result.count(name)) continue;
      Metric m{0.0, unit};
      if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
        const auto it = spans.find(name.substr(0, name.size() - 2));
        if (it != spans.end()) m.value = it->second.total_s / traced_count;
      }
      result[name] = m;
    }
    workload->layer_metrics(spans, static_cast<std::int64_t>(phase.passes.size()), result);
    result["trace.overhead_ratio"] = {
        untraced.at("firings_per_s").value / traced.at("firings_per_s").value - 1.0, "ratio"};
  }

  const bool correct = checks.failed() == 0;
  std::ostringstream stamp;
  stamp << "{\"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed
        << ", \"seconds\": " << number(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
        << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"git_sha\": " << quoted(args.git_sha)
        << ", \"source_sha256\": " << quoted(args.source_sha)
        << ", \"sizes\": " << workload->sizes_json() << "}";

  std::ostringstream record;
  record << "{\"stamp\": " << stamp.str() << ",\n \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << checks.attempted() << ", \"failed\": " << checks.failed()
         << ",\n \"failures\": [";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    record << (i ? ", " : "") << quoted(checks.failures()[i]);
  }
  record << "],\n \"first_touch_s\": " << number(first_touch_s) << ",\n \"passes\": " << passes
         << ",\n \"traced_passes\": " << traced_passes
         << ",\n \"untraced\": " << metrics_json(untraced);
  if (args.trace) {
    record << ",\n \"traced\": " << metrics_json(traced) << ",\n \"spans\": {";
    bool first = true;
    for (const auto& [name, t] : spans) {
      record << (first ? "" : ", ") << quoted(name) << ": {\"count\": " << t.count
             << ", \"total_s\": " << number(t.total_s) << ", \"self_s\": " << number(t.self_s)
             << "}";
      first = false;
    }
    record << "}";
  }
  record << ",\n \"metrics\": " << metrics_json(result) << "}\n";

  const std::string base = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  std::ofstream(base + ".json") << record.str();
  if (args.trace) {
    std::ofstream spans_file(base + "-spans.json");
    Tracer::instance().write_json(spans_file);
    std::cout << "span totals over the traced phase (s, " << spans.size() << " names):\n";
    for (const auto& [name, t] : spans) {
      std::cout << "  " << std::left << std::setw(28) << name << " count " << std::setw(9)
                << t.count << " total " << number(t.total_s) << " self " << number(t.self_s)
                << "\n";
    }
    std::cout << "tracing overhead: firings_per_s " << number(untraced.at("firings_per_s").value)
              << " untraced vs " << number(traced.at("firings_per_s").value) << " traced\n";
  }
  for (const std::string& f : checks.failures()) std::cout << "FAILED: " << f << "\n";
  std::cout << "stamp " << stamp.str() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted() << ", \"failed\": " << checks.failed()
            << ", \"metrics\": " << metrics_json(result) << "}" << std::endl;
  return correct ? EXIT_SUCCESS : EXIT_FAILURE;
}
