#include "schedule/serialize.h"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace ccs::schedule {

void write_schedule(const sdf::SdfGraph& g, const Schedule& s, std::ostream& os) {
  os << "schedule " << (s.name.empty() ? "unnamed" : s.name) << '\n';
  os << "inputs " << s.inputs_per_period << '\n';
  os << "outputs " << s.outputs_per_period << '\n';
  os << "buffers";
  for (const auto cap : s.buffer_caps) os << ' ' << cap;
  os << '\n';
  os << "period";
  s.period.for_each_firing([&](sdf::NodeId v) { os << ' ' << g.node(v).name; });
  os << '\n';
}

std::string to_text(const sdf::SdfGraph& g, const Schedule& s) {
  std::ostringstream os;
  write_schedule(g, s, os);
  return os.str();
}

namespace {

[[noreturn]] void fail(const std::string& msg) { throw ParseError("schedule: " + msg); }

}  // namespace

Schedule read_schedule(const sdf::SdfGraph& g, std::istream& is) {
  Schedule s;
  std::string line;
  bool saw_period = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind == "schedule") {
      if (!(ls >> s.name)) fail("missing name");
    } else if (kind == "inputs") {
      if (!(ls >> s.inputs_per_period)) fail("bad inputs count");
    } else if (kind == "outputs") {
      if (!(ls >> s.outputs_per_period)) fail("bad outputs count");
    } else if (kind == "buffers") {
      std::int64_t cap = 0;
      while (ls >> cap) s.buffer_caps.push_back(cap);
      if (s.buffer_caps.size() != static_cast<std::size_t>(g.edge_count())) {
        throw Error("schedule has " + std::to_string(s.buffer_caps.size()) +
                    " buffer capacities for a graph with " +
                    std::to_string(g.edge_count()) + " edges");
      }
    } else if (kind == "period") {
      std::string name;
      while (ls >> name) {
        const sdf::NodeId v = g.find_node(name);
        if (v == sdf::kInvalidNode) throw Error("unknown module '" + name + "' in period");
        s.period.append(v);
      }
      saw_period = true;
    } else {
      fail("unknown line '" + kind + "'");
    }
  }
  if (!saw_period) fail("missing period line");
  if (s.buffer_caps.empty() && g.edge_count() > 0) fail("missing buffers line");
  return s;
}

Schedule from_text(const sdf::SdfGraph& g, const std::string& text) {
  std::istringstream is(text);
  return read_schedule(g, is);
}

namespace {

void write_int_array(std::ostream& os, const std::vector<std::int64_t>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    os << values[i];
  }
  os << ']';
}

}  // namespace

void write_parallel_json(const ParallelResult& r, std::ostream& os) {
  std::ostringstream imbalance;
  imbalance << std::setprecision(15) << r.imbalance();
  os << "{\"workers\": " << r.workers << ", \"makespan\": " << r.makespan
     << ", \"total_misses\": " << r.total_misses
     << ", \"total_firings\": " << r.total_firings << ", \"outputs\": " << r.outputs
     << ", \"imbalance\": " << imbalance.str() << ", \"worker_misses\": ";
  write_int_array(os, r.worker_misses);
  os << ", \"worker_busy\": ";
  write_int_array(os, r.worker_busy);
  os << ", \"worker_batches\": ";
  write_int_array(os, r.worker_batches);
  os << ", \"llc\": {\"accesses\": " << r.llc.accesses << ", \"hits\": " << r.llc.hits
     << ", \"misses\": " << r.llc.misses << ", \"writebacks\": " << r.llc.writebacks
     << "}}";
}

std::string to_json(const ParallelResult& r) {
  std::ostringstream os;
  write_parallel_json(r, os);
  return os.str();
}

}  // namespace ccs::schedule
