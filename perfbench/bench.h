// Shared machinery of the repository benchmark: spans, metric records,
// output checks, and the pass loop every workload runs under.
//
// A workload is a fixed amount of work (a "pass": set-up, then a sequence
// of timed ticks, then teardown) that is repeated until the run's time
// budget is spent. Model quantities (misses, modelled cycles) come from
// the first pass and every later pass must reproduce them exactly; wall
// times are summarised per pass and reported as the slow-side quartile
// across passes (see wall_metrics), which short quiet spells of the host
// do not move.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Spans

/// In-memory span log. Disabled (the default), opening a span is a single
/// branch; enabled, each span appends one record. Records are written out
/// when the run ends, never during measurement.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::int32_t parent = -1;   ///< Index of the enclosing span, -1 at top level.
    std::int64_t id = -1;       ///< Tick, cell or pass id the span belongs to.
    std::int64_t start_ns = 0;  ///< Since the tracer was enabled.
    std::int64_t end_ns = 0;
  };

  /// Per span name: how often it ran, its total time, and its self time
  /// (total minus the time covered by its direct children).
  struct NameTotals {
    std::int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  static Tracer& instance();

  bool enabled() const noexcept { return enabled_; }
  void enable();

  std::int32_t open(const char* name, std::int64_t id);
  void close(std::int32_t index);

  std::map<std::string, NameTotals> totals() const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  void write_json(std::ostream& os) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_{};
  std::vector<Record> records_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one call into a library layer.
class Span {
 public:
  explicit Span(const char* name, std::int64_t id = -1)
      : index_(Tracer::instance().enabled() ? Tracer::instance().open(name, id) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::instance().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

// ---------------------------------------------------------------------------
// Metrics and checks

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation and check accounting. Every operation the benchmark attempts
/// (a grid cell, a tick, an admission) and every output check counts once
/// in `attempted`; one that throws, is refused, or fails counts in `failed`.
class Checks {
 public:
  /// Records one operation or check; returns `ok`.
  bool expect(bool ok, const std::string& what);

  /// Runs `op` as one operation, counting an exception as a failure.
  bool attempt(const std::string& what, const std::function<void()>& op);

  std::int64_t attempted() const noexcept { return attempted_; }
  std::int64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< First few messages only.
};

// ---------------------------------------------------------------------------
// Workloads and the pass loop

/// Wall times of one pass.
struct PassTiming {
  double setup_s = 0.0;         ///< Everything before the first timed tick.
  std::vector<double> tick_s;   ///< Each timed tick, in order.
  std::int64_t firings = 0;     ///< Modelled firings done by the timed ticks.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// First use of every library path the workload touches (lazy registry
  /// initialisation included), on a token input. Called once per process.
  virtual void first_touch() = 0;

  /// One complete pass. The first pass of the process records the model
  /// counters; every later pass checks that it reproduced them.
  virtual PassTiming run_pass(std::int64_t pass, Checks& checks) = 0;

  /// misses_per_output of one pass (deterministic).
  virtual void model_metrics(Metrics& out) const = 0;

  /// Per-layer metrics the span times alone do not give: one pass's
  /// deterministic counters, and rates of counters over the traced span
  /// totals of `passes` passes.
  virtual void layer_metrics(const std::map<std::string, Tracer::NameTotals>& spans,
                             std::int64_t passes, Metrics& out) const = 0;

  /// Input sizes for the output stamp, as a JSON object.
  virtual std::string sizes_json() const = 0;
};

std::unique_ptr<Workload> make_plan_sweep(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_steady(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_churn(std::uint64_t seed);

/// The layer ladder (traced runs only): one fixed tenant set through
/// simulate, Stream, a 1-worker Cluster and 4-worker Clusters; adds
/// ladder.<row>.{firings,probes}_per_s and checks Stream == 1-worker Cluster.
void run_ladder(std::uint64_t seed, Checks& checks, Metrics& out);

/// Timings of one measurement phase.
struct Phase {
  std::vector<PassTiming> passes;
  double peak_rss_mb = 0.0;  ///< VmHWM after the first pass, before the
                             ///< timing samples of later passes pile up.
};

/// Repeats passes until `seconds` have elapsed and at least two passes and
/// `min_ticks` ticks are done. A pass that throws counts as a failed
/// operation and ends the phase.
Phase measure(Workload& workload, double seconds, std::int64_t min_ticks, Checks& checks);

/// End-to-end wall-time metrics of a phase: setup_s, firings_per_s,
/// tick_p50_ms, tick_p99_ms, each the slow-side quartile over passes (or
/// tick windows). `first_touch_s` is the one-time set-up cost paid before
/// the phase; it is added to the per-pass set-up.
void wall_metrics(const Phase& phase, double first_touch_s, Metrics& out);

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for none.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set (VmHWM) in MB.
double peak_rss_mb();

}  // namespace perfbench
