#include "analysis/profile.h"

#include <sstream>

#include "util/contract.h"
#include "util/table.h"

namespace ccs::analysis {

std::vector<ComponentProfile> profile_components(const sdf::SdfGraph& g,
                                                 const partition::Partition& p,
                                                 const runtime::RunResult& result) {
  CCS_EXPECTS(result.node_misses.size() == static_cast<std::size_t>(g.node_count()),
              "run result lacks per-node attribution");
  CCS_EXPECTS(p.assignment.size() == static_cast<std::size_t>(g.node_count()),
              "partition does not match graph");
  std::vector<ComponentProfile> profiles(static_cast<std::size_t>(p.num_components));
  std::int64_t total_misses = 0;
  for (std::int32_t c = 0; c < p.num_components; ++c) {
    profiles[static_cast<std::size_t>(c)].component = c;
  }
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    auto& prof = profiles[static_cast<std::size_t>(p.comp(v))];
    prof.state_words += g.node(v).state;
    prof.modules += 1;
    prof.misses += result.node_misses[static_cast<std::size_t>(v)];
    total_misses += result.node_misses[static_cast<std::size_t>(v)];
  }
  for (auto& prof : profiles) {
    prof.miss_share = total_misses > 0 ? static_cast<double>(prof.misses) /
                                             static_cast<double>(total_misses)
                                       : 0.0;
  }
  return profiles;
}

std::string format_profiles(const std::vector<ComponentProfile>& profiles) {
  Table t("per-component profile");
  t.set_header({"component", "modules", "state", "misses", "share"});
  for (const auto& prof : profiles) {
    t.add_row({Table::num(static_cast<std::int64_t>(prof.component)),
               Table::num(static_cast<std::int64_t>(prof.modules)),
               Table::num(prof.state_words), Table::num(prof.misses),
               Table::num(100.0 * prof.miss_share, 1) + "%"});
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

}  // namespace ccs::analysis
