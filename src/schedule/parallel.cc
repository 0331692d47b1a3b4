#include "schedule/parallel.h"

#include "util/stats.h"

namespace ccs::schedule {

double ParallelResult::imbalance() const { return busy_imbalance(worker_busy); }

}  // namespace ccs::schedule
