#include "util/stats.h"

#include <algorithm>

#include "util/contract.h"

namespace ccs {

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    CCS_EXPECTS(v > 0.0, "geometric mean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo = *std::max_element(values.begin(),
                                      values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

double busy_imbalance(const std::vector<std::int64_t>& busy) {
  if (busy.empty()) return 0.0;
  std::int64_t total = 0;
  std::int64_t worst = 0;
  for (const std::int64_t b : busy) {
    total += b;
    worst = std::max(worst, b);
  }
  if (total == 0) return 0.0;
  const double average = static_cast<double>(total) / static_cast<double>(busy.size());
  return static_cast<double>(worst) / average;
}

}  // namespace ccs
