// Golden gate for the fire-until-stuck generators outside the partitioned
// scheduler: for every workloads::Registry graph, the capacities
// sdf::feasible_buffers() grows, the demand-driven iteration that
// naive_minimal_buffer_schedule() runs under them, and -- for pipelines --
// kohli_schedule() at M = 256, 1024, 4096 and 65536 words. Each result is
// reduced to one line (lengths, per-period counts and an FNV-1a hash of the
// period followed by the buffer caps) and the lines must match
// tests/golden/sweep_schedules.txt byte for byte.
//
// On a mismatch the produced text is written to sweep_schedules.actual.txt
// in the working directory for diffing.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "schedule/kohli.h"
#include "schedule/naive.h"
#include "sdf/min_buffer.h"
#include "util/error.h"
#include "workloads/registry.h"

namespace ccs::schedule {
namespace {

/// 64-bit FNV-1a over each value's eight little-endian bytes.
class Fnv1a {
 public:
  void add(std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i, bits >>= 8) {
      hash_ = (hash_ ^ (bits & 0xffU)) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void render_schedule(std::ostream& os, const std::string& cell, const Schedule& s) {
  Fnv1a hash;
  for (const sdf::NodeId v : s.period.flatten()) hash.add(v);
  for (const std::int64_t cap : s.buffer_caps) hash.add(cap);
  os << cell << " period=" << s.period.size() << " in=" << s.inputs_per_period
     << " out=" << s.outputs_per_period << " fnv=" << std::hex << hash.value() << std::dec
     << "\n";
}

std::string render_golden() {
  std::ostringstream os;
  const auto& registry = workloads::Registry::global();
  for (const std::string& name : registry.keys()) {
    const sdf::SdfGraph g = registry.build(name);
    const auto caps = sdf::feasible_buffers(g);
    std::int64_t words = 0;
    Fnv1a hash;
    for (const std::int64_t cap : caps) {
      words += cap;
      hash.add(cap);
    }
    os << name << " feasible-buffers words=" << words << " fnv=" << std::hex << hash.value()
       << std::dec << "\n";
    render_schedule(os, name + " naive-minbuf", naive_minimal_buffer_schedule(g));
    if (!g.is_pipeline()) continue;
    for (const std::int64_t m : {256, 1024, 4096, 65536}) {
      const std::string cell = name + "@" + std::to_string(m) + " kohli";
      try {
        render_schedule(os, cell, kohli_schedule(g, m));
      } catch (const Error& e) {
        os << cell << " error: " << e.what() << "\n";
      }
    }
  }
  return os.str();
}

TEST(SweepScheduleGolden, FeasibleBuffersNaiveAndKohliMatchTheRecordedFile) {
  std::ifstream in(std::string(CCS_GOLDEN_DIR) + "/sweep_schedules.txt");
  ASSERT_TRUE(in) << "missing golden sweep_schedules.txt";
  std::ostringstream golden;
  golden << in.rdbuf();
  const std::string actual = render_golden();
  if (actual != golden.str()) {
    std::ofstream("sweep_schedules.actual.txt") << actual;
  }
  EXPECT_EQ(actual, golden.str());
}

}  // namespace
}  // namespace ccs::schedule
