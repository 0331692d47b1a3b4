#include "schedule/serialize.h"

#include <iomanip>
#include <ostream>
#include <set>
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

[[noreturn]] void fail(int line, const std::string& msg) {
  fail("line " + std::to_string(line) + ": " + msg);
}

/// Parses a whole token as a non-negative integer: "1abc", "-4" and
/// out-of-range values are errors, not prefixes or wrap-arounds.
std::int64_t parse_count(const std::string& token, const std::string& what, int line) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(token, &pos);
    if (pos == token.size() && v >= 0) return v;
  } catch (const std::exception&) {
    // Not a number, or out of int64 range: rejected below like junk.
  }
  fail(line, "bad " + what + " '" + token + "'");
}

}  // namespace

Schedule read_schedule(const sdf::SdfGraph& g, std::istream& is) {
  Schedule s;
  std::set<std::string> seen;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind != "schedule" && kind != "inputs" && kind != "outputs" && kind != "buffers" &&
        kind != "period") {
      fail(line_no, "unknown line '" + kind + "'");
    }
    if (!seen.insert(kind).second) fail(line_no, "repeated '" + kind + "' line");
    std::string token;
    if (kind == "schedule") {
      if (!(ls >> s.name)) fail(line_no, "missing name");
    } else if (kind == "inputs") {
      if (!(ls >> token)) fail(line_no, "missing inputs count");
      s.inputs_per_period = parse_count(token, "inputs count", line_no);
    } else if (kind == "outputs") {
      if (!(ls >> token)) fail(line_no, "missing outputs count");
      s.outputs_per_period = parse_count(token, "outputs count", line_no);
    } else if (kind == "buffers") {
      while (ls >> token) s.buffer_caps.push_back(parse_count(token, "buffer capacity", line_no));
      if (s.buffer_caps.size() != static_cast<std::size_t>(g.edge_count())) {
        throw Error("schedule has " + std::to_string(s.buffer_caps.size()) +
                    " buffer capacities for a graph with " +
                    std::to_string(g.edge_count()) + " edges");
      }
    } else {  // period
      while (ls >> token) {
        const sdf::NodeId v = g.find_node(token);
        if (v == sdf::kInvalidNode) throw Error("unknown module '" + token + "' in period");
        s.period.append(v);
      }
    }
    if (ls >> token) fail(line_no, "trailing junk '" + token + "'");
  }
  if (!seen.contains("period")) fail("missing period line");
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
