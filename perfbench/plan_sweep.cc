// plan-sweep: the paper's own experiment loop as a batch job.
//
// A fixed grid of (graph x cache size) cells: every StreamIt-suite graph
// plus seeded uniform / hourglass / heavy-tail pipelines, layered
// homogeneous dags and series-parallel dags, each at two cache sizes.
// M = 2048 words holds the whole state of most graphs; M = 512 holds that
// of almost none. Set-up generates the graphs and constructs one Planner
// per cell; a tick is one cell's compare() (every applicable partitioner
// plus the Theorem 3/7/10 bound) followed by simulate() of the auto plan
// on the 4M augmented cache the repository's sweeps measure on.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/planner.h"
#include "core/scheduler.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace perfbench {
namespace {

using namespace ccs;

constexpr std::int64_t kBlockWords = 8;
constexpr std::int64_t kCacheWords[] = {512, 2048};
constexpr std::int64_t kSimFactor = 4;
constexpr std::int64_t kTargetOutputs = 1024;
constexpr std::int32_t kSeededPerFamily = 4;

struct NamedGraph {
  std::string name;
  sdf::SdfGraph graph;
};

/// The seeded part of the grid: kSeededPerFamily graphs of each family.
/// Sizes are fixed by the graph's index; the seed draws module states from
/// narrow ranges and the dags' edges and rates, so every seed sweeps a grid
/// of the same shape. Every module fits the smaller cache.
std::vector<NamedGraph> seeded_graphs(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedGraph> out;
  for (std::int32_t i = 0; i < kSeededPerFamily; ++i) {
    const std::string tag = std::string("-") + std::to_string(i);
    out.push_back({"uniform" + tag, workloads::uniform_pipeline(8 + 4 * i, rng.uniform(144, 160))});
    out.push_back({"hourglass" + tag,
                   workloads::hourglass_pipeline(6 + 2 * (i % 2), rng.uniform(144, 160), 2)});
    out.push_back({"heavy-tail" + tag,
                   workloads::heavy_tail_pipeline(12 + 4 * i, rng.uniform(56, 64),
                                                  rng.uniform(400, 432), 4)});
    workloads::LayeredSpec layered;
    layered.layers = 2 + i % 2;
    layered.width = 2 + i / 2;
    layered.state_lo = 112;
    layered.state_hi = 176;
    out.push_back({"layered" + tag, workloads::layered_homogeneous_dag(layered, rng)});
    workloads::SeriesParallelSpec sp;
    sp.target_nodes = 8 + 2 * i;
    sp.max_rate = 2;
    sp.state_lo = 112;
    sp.state_hi = 176;
    out.push_back({"series-parallel" + tag, workloads::series_parallel_dag(sp, rng)});
  }
  return out;
}

/// What one cell must reproduce on every pass.
struct CellResult {
  runtime::RunResult run;                ///< simulate() of the auto plan.
  std::vector<std::string> partitioners; ///< compare() rows, best first.
  std::int32_t components = 0;           ///< Auto plan's component count.
  double lower_bound = 0.0;              ///< Misses/input bound (0 if none).
  bool operator==(const CellResult&) const = default;
};

class PlanSweep final : public Workload {
 public:
  explicit PlanSweep(std::uint64_t seed) : seed_(seed) {}

  void first_touch() override {
    core::PlannerOptions opts;
    opts.cache = {2 * kBlockWords, kBlockWords};
    const core::Planner planner(workloads::uniform_pipeline(2, kBlockWords), opts);
    core::simulate(planner.graph(), planner.plan().schedule, opts.cache, 1);
  }

  PassTiming run_pass(std::int64_t pass, Checks& checks) override {
    PassTiming timing;
    const auto setup_start = Clock::now();
    std::vector<NamedGraph> graphs;
    {
      const Span span("workloads.gen", pass);
      for (auto& app : workloads::streamit_suite()) {
        graphs.push_back({app.name, std::move(app.graph)});
      }
      for (auto& g : seeded_graphs(seed_)) graphs.push_back(std::move(g));
    }
    struct Cell {
      std::string name;
      std::unique_ptr<core::Planner> planner;
    };
    std::vector<Cell> cells;
    for (const std::int64_t m : kCacheWords) {
      for (const NamedGraph& g : graphs) {
        Cell cell{g.name + "@" + std::to_string(m), nullptr};
        const Span span("core.planner.ctor", static_cast<std::int64_t>(cells.size()));
        core::PlannerOptions opts;
        opts.cache = {m, kBlockWords};
        checks.attempt("plan-sweep " + cell.name + " planner",
                       [&] { cell.planner = std::make_unique<core::Planner>(g.graph, opts); });
        cells.push_back(std::move(cell));
      }
    }
    timing.setup_s = seconds_between(setup_start, Clock::now());
    graphs_ = static_cast<std::int64_t>(graphs.size());

    std::vector<CellResult> results(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!cells[i].planner) continue;
      const core::Planner& planner = *cells[i].planner;
      CellResult& r = results[i];
      const auto tick_start = Clock::now();
      const bool ok = checks.attempt("plan-sweep " + cells[i].name, [&] {
        const Span tick("cell", static_cast<std::int64_t>(i));
        std::vector<core::StrategyComparison> rows;
        {
          const Span span("core.planner.compare", static_cast<std::int64_t>(i));
          rows = planner.compare();
        }
        const std::string auto_key = planner.resolve_auto();
        const auto chosen = std::find_if(rows.begin(), rows.end(),
                                         [&](const auto& row) { return row.partitioner == auto_key; });
        if (chosen == rows.end()) throw std::runtime_error("no compare() row for " + auto_key);
        iomodel::CacheConfig sim = planner.options().cache;
        sim.capacity_words *= kSimFactor;
        {
          const Span span("core.simulate", static_cast<std::int64_t>(i));
          r.run = core::simulate(planner.graph(), chosen->plan.schedule, sim, kTargetOutputs);
        }
        for (const auto& row : rows) r.partitioners.push_back(row.partitioner);
        r.components = chosen->plan.partition.num_components;
        r.lower_bound = chosen->has_lower_bound ? chosen->lower_bound_misses_per_input : 0.0;
      });
      if (!ok) continue;
      timing.tick_s.push_back(seconds_between(tick_start, Clock::now()));
      timing.firings += r.run.firings;
      checks.expect(r.run.misses_per_input() >= r.lower_bound,
                    "plan-sweep " + cells[i].name + ": measured misses/input " +
                        std::to_string(r.run.misses_per_input()) + " below the lower bound " +
                        std::to_string(r.lower_bound));
    }

    if (first_.empty()) {
      first_ = std::move(results);
    } else {
      checks.expect(results == first_, "plan-sweep: pass " + std::to_string(pass) +
                                           " counters differ from pass 0");
    }
    return timing;
  }

  void model_metrics(Metrics& out) const override {
    const runtime::RunResult total = sum();
    out["misses_per_output"] = {total.misses_per_output(), "misses/output"};
  }

  void layer_metrics(const std::map<std::string, Tracer::NameTotals>& spans, std::int64_t passes,
                     Metrics& out) const override {
    const runtime::RunResult total = sum();
    double components = 0.0;
    double measured = 0.0;
    double bound = 0.0;
    for (const CellResult& r : first_) {
      components += r.components;
      if (r.lower_bound > 0.0) {
        measured += r.run.misses_per_input();
        bound += r.lower_bound;
      }
    }
    out["partition.components_mean"] = {components / static_cast<double>(first_.size()), "count"};
    out["analysis.bound_ratio"] = {bound > 0.0 ? measured / bound : 0.0, "ratio"};
    out["runtime.firings"] = {static_cast<double>(total.firings), "count"};
    out["iomodel.l1.accesses"] = {static_cast<double>(total.cache.accesses), "count"};
    out["iomodel.l1.misses"] = {static_cast<double>(total.cache.misses), "count"};
    out["iomodel.l1.writebacks"] = {static_cast<double>(total.cache.writebacks), "count"};
    const auto sim = spans.find("core.simulate");
    if (sim != spans.end() && sim->second.total_s > 0.0) {
      out["iomodel.probes_per_s"] = {
          static_cast<double>(total.cache.accesses) * static_cast<double>(passes) /
              sim->second.total_s,
          "1/s"};
    }
  }

  std::string sizes_json() const override {
    std::ostringstream os;
    os << "{\"graphs\": " << graphs_ << ", \"cache_words\": [" << kCacheWords[0] << ", "
       << kCacheWords[1] << "], \"block_words\": " << kBlockWords
       << ", \"sim_factor\": " << kSimFactor << ", \"cells\": " << first_.size()
       << ", \"target_outputs\": " << kTargetOutputs << "}";
    return os.str();
  }

 private:
  runtime::RunResult sum() const {
    runtime::RunResult total;
    for (const CellResult& r : first_) total += r.run;
    return total;
  }

  std::uint64_t seed_;
  std::int64_t graphs_ = 0;
  std::vector<CellResult> first_;
};

}  // namespace

std::unique_ptr<Workload> make_plan_sweep(std::uint64_t seed) {
  return std::make_unique<PlanSweep>(seed);
}

}  // namespace perfbench
