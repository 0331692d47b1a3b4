#include "schedule/serialize.h"

#include <gtest/gtest.h>

#include "core/planner.h"
#include "schedule/naive.h"
#include "schedule/validate.h"
#include "util/error.h"
#include "workloads/streamit.h"

namespace ccs::schedule {
namespace {

TEST(ScheduleSerialize, RoundTripPreservesEverything) {
  const auto g = ccs::workloads::fm_radio(4);
  const auto original = naive_minimal_buffer_schedule(g);
  const auto parsed = from_text(g, to_text(g, original));
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.period, original.period);
  EXPECT_EQ(parsed.buffer_caps, original.buffer_caps);
  EXPECT_EQ(parsed.inputs_per_period, original.inputs_per_period);
  EXPECT_EQ(parsed.outputs_per_period, original.outputs_per_period);
}

TEST(ScheduleSerialize, RoundTrippedScheduleStillValidates) {
  const auto g = ccs::workloads::filter_bank(4);
  core::PlannerOptions opts;
  opts.cache.capacity_words = 1024;
  opts.cache.block_words = 8;
  const auto plan = core::Planner(g, opts).plan();
  const auto parsed = from_text(g, to_text(g, plan.schedule));
  EXPECT_TRUE(check_schedule(g, parsed).ok);
}

TEST(ScheduleSerialize, UnknownModuleRejected) {
  const auto g = ccs::workloads::fm_radio(2);
  const auto s = naive_minimal_buffer_schedule(g);
  auto text = to_text(g, s);
  // Parse against a *different* graph whose names don't match.
  const auto other = ccs::workloads::des(2);
  EXPECT_THROW(from_text(other, text), Error);
}

TEST(ScheduleSerialize, BufferArityMismatchRejected) {
  const auto g = ccs::workloads::fm_radio(2);
  EXPECT_THROW(from_text(g,
                         "schedule x\ninputs 1\noutputs 1\nbuffers 1 2\nperiod AtoD\n"),
               Error);
}

TEST(ScheduleSerialize, MissingPeriodRejected) {
  const auto g = ccs::workloads::fm_radio(2);
  EXPECT_THROW(from_text(g, "schedule x\ninputs 1\noutputs 1\n"), ParseError);
}

TEST(ScheduleSerialize, GarbageLineRejected) {
  const auto g = ccs::workloads::fm_radio(2);
  EXPECT_THROW(from_text(g, "bogus\n"), ParseError);
}

/// `text` with its line starting "<kind> " replaced by `line`.
std::string with_line(const std::string& text, const std::string& kind,
                      const std::string& line) {
  const std::size_t at = text.find(kind + " ");
  EXPECT_NE(at, std::string::npos) << kind;
  return text.substr(0, at) + line + text.substr(text.find('\n', at));
}

/// Expects a ParseError whose message names line `line_no`.
void expect_parse_error_at(const sdf::SdfGraph& g, const std::string& text, int line_no) {
  try {
    from_text(g, text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line_no) + ":"),
              std::string::npos)
        << e.what();
  }
}

class MalformedSchedule : public ::testing::Test {
 protected:
  // Lines: 1 schedule, 2 inputs, 3 outputs, 4 buffers, 5 period.
  const sdf::SdfGraph g = ccs::workloads::fm_radio(2);
  const std::string text = to_text(g, naive_minimal_buffer_schedule(g));
};

TEST_F(MalformedSchedule, WellFormedTextParses) { EXPECT_NO_THROW(from_text(g, text)); }

TEST_F(MalformedSchedule, TrailingTokenAfterNameRejected) {
  expect_parse_error_at(g, with_line(text, "schedule", "schedule s junk"), 1);
}

TEST_F(MalformedSchedule, CountWithTrailingJunkRejected) {
  expect_parse_error_at(g, with_line(text, "inputs", "inputs 1abc"), 2);
}

TEST_F(MalformedSchedule, NegativeCountAndExtraTokenRejected) {
  expect_parse_error_at(g, with_line(text, "outputs", "outputs -7 9"), 3);
  expect_parse_error_at(g, with_line(text, "outputs", "outputs 7 9"), 3);
  expect_parse_error_at(g, with_line(text, "outputs", "outputs 99999999999999999999"), 3);
}

TEST_F(MalformedSchedule, NonNumericCapacityRejected) {
  expect_parse_error_at(g, with_line(text, "buffers", "buffers 1 zz"), 4);
}

TEST_F(MalformedSchedule, NegativeCapacityRejected) {
  std::string caps = "buffers -4";
  for (sdf::EdgeId e = 1; e < g.edge_count(); ++e) caps += " 4";
  expect_parse_error_at(g, with_line(text, "buffers", caps), 4);
}

TEST_F(MalformedSchedule, RepeatedPeriodLineRejected) {
  const std::string period = text.substr(text.find("period "));
  expect_parse_error_at(g, text + period, 6);
}

TEST(ParallelJson, CarriesEveryCounterLosslessly) {
  ParallelResult r;
  r.workers = 2;
  r.makespan = 62848;
  r.total_misses = 68461;
  r.total_firings = 109568;
  r.outputs = 4096;
  r.worker_misses = {36290, 32171};
  r.worker_busy = {62976, 46592};
  r.worker_batches = {132, 131};
  r.llc.accesses = 68461;
  r.llc.hits = 66985;
  r.llc.misses = 1476;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"workers\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"makespan\": 62848"), std::string::npos);
  EXPECT_NE(json.find("\"total_misses\": 68461"), std::string::npos);
  EXPECT_NE(json.find("\"worker_misses\": [36290, 32171]"), std::string::npos);
  EXPECT_NE(json.find("\"worker_busy\": [62976, 46592]"), std::string::npos);
  EXPECT_NE(json.find("\"worker_batches\": [132, 131]"), std::string::npos);
  EXPECT_NE(json.find("\"llc\": {\"accesses\": 68461, \"hits\": 66985, "
                      "\"misses\": 1476, \"writebacks\": 0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"imbalance\": "), std::string::npos);
}

TEST(ParallelJson, IsRepeatRunStableForIdenticalResults) {
  // The CI determinism job diffs these byte-for-byte: identical results
  // must serialize identically, and distinct results must not.
  ParallelResult a;
  a.workers = 1;
  a.worker_busy = {10};
  a.worker_misses = {3};
  a.worker_batches = {1};
  ParallelResult b = a;
  EXPECT_EQ(to_json(a), to_json(b));
  b.worker_misses = {4};
  EXPECT_NE(to_json(a), to_json(b));
}

}  // namespace
}  // namespace ccs::schedule
