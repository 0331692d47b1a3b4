#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  enabled_ = true;
  origin_ = Clock::now();
  records_.reserve(1 << 20);
}

std::int32_t Tracer::open(const char* name, std::int64_t id) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.id = id;
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  const auto index = static_cast<std::int32_t>(records_.size());
  records_.push_back(r);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  records_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  stack_.pop_back();
}

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  // One thread records all spans, so children of a span never overlap and
  // the parent's self time is its duration minus the children's durations.
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    NameTotals& t = out[r.name];
    ++t.count;
    t.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    t.self_s += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << r.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(r.start_ns) * 1e-3
       << ", \"dur\": " << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
       << ", \"args\": {\"span\": " << i << ", \"parent\": " << r.parent
       << ", \"id\": " << r.id << "}}";
  }
  os << "\n]}\n";
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  return ok;
}

bool Checks::attempt(const std::string& what, const std::function<void()>& op) {
  try {
    op();
  } catch (const std::exception& e) {
    return expect(false, what + ": " + e.what());
  }
  return expect(true, what);
}

Phase measure(Workload& workload, double seconds, std::int64_t min_ticks, Checks& checks) {
  Phase phase;
  std::int64_t ticks = 0;
  const auto start = Clock::now();
  for (std::int64_t pass = 0;; ++pass) {
    try {
      phase.passes.push_back(workload.run_pass(pass, checks));
    } catch (const std::exception& e) {
      checks.expect(false, "pass " + std::to_string(pass) + ": " + e.what());
      break;
    }
    if (pass == 0) phase.peak_rss_mb = peak_rss_mb();
    ticks += static_cast<std::int64_t>(phase.passes.back().tick_s.size());
    if (seconds_between(start, Clock::now()) >= seconds && pass >= 1 && ticks >= min_ticks) break;
  }
  return phase;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

void wall_metrics(const Phase& phase, double first_touch_s, Metrics& out) {
  // The host's speed changes in phases of seconds to minutes (the same pass
  // runs up to twice as fast while a co-scheduled hardware thread is
  // quiet), and the share of quiet time differs from run to run. The
  // slow-side quartile over passes -- the 75th percentile of a time, the
  // 25th of a rate -- sits on the contended plateau every run spends most
  // of its time on, so it repeats far better than the median.
  constexpr std::size_t kWindowTicks = 1000;
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> window;
  for (const PassTiming& p : phase.passes) {
    setups.push_back(p.setup_s);
    double busy = 0.0;
    for (const double t : p.tick_s) busy += t;
    if (busy > 0.0) rates.push_back(static_cast<double>(p.firings) / busy);
    // Tick percentiles are taken per window of whole passes holding at
    // least 1000 ticks: every window does the same work, and at least ten
    // samples lie beyond its p99.
    window.insert(window.end(), p.tick_s.begin(), p.tick_s.end());
    if (window.size() >= kWindowTicks) {
      p50s.push_back(quantile(window, 0.50));
      p99s.push_back(quantile(window, 0.99));
      window.clear();
    }
  }
  out["setup_s"] = {first_touch_s + quantile(setups, 0.75), "s"};
  out["firings_per_s"] = {quantile(rates, 0.25), "firings/s"};
  out["tick_p50_ms"] = {quantile(p50s, 0.75) * 1e3, "ms"};
  out["tick_p99_ms"] = {quantile(p99s, 0.75) * 1e3, "ms"};
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
