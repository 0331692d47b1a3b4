#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::core {
namespace {

/// The acceptance grid: 2 workloads x 3 cache sizes x 4 partitioners = 24
/// partitioned cells (plus whatever baselines a test adds).
SweepSpec acceptance_spec() {
  SweepSpec spec;
  spec.workloads = {"uniform-pipeline", "FMRadio"};
  spec.caches = {{256, 8}, {512, 8}, {1024, 8}};
  spec.partitioners = {"auto", "dag-greedy", "dag-refined", "agglomerative"};
  spec.target_outputs = 128;  // keep the grid fast; determinism is size-free
  return spec;
}

void expect_cells_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& x = a.cells[i];
    const CellResult& y = b.cells[i];
    // Same coordinate in the same slot: grid order is thread-independent.
    EXPECT_EQ(x.workload, y.workload) << i;
    EXPECT_EQ(x.strategy, y.strategy) << i;
    EXPECT_EQ(x.cache.capacity_words, y.cache.capacity_words) << i;
    EXPECT_EQ(x.t_multiplier, y.t_multiplier) << i;
    // Same outcome and counters, bit for bit. A few named fields first for
    // readable failures, then the exhaustive defaulted operator== so any
    // counter added to RunResult is covered automatically.
    EXPECT_EQ(x.ok, y.ok) << i << " " << x.error << " vs " << y.error;
    EXPECT_EQ(x.error, y.error) << i;
    EXPECT_EQ(x.resolved_strategy, y.resolved_strategy) << i;
    EXPECT_EQ(x.components, y.components) << i;
    EXPECT_EQ(x.batch_t, y.batch_t) << i;
    EXPECT_EQ(x.run.cache.misses, y.run.cache.misses) << i;
    EXPECT_EQ(x.run.sink_firings, y.run.sink_firings) << i;
    EXPECT_TRUE(x.run == y.run) << i;
    EXPECT_EQ(x.server_steps, y.server_steps) << i;
    EXPECT_EQ(x.cluster_makespan, y.cluster_makespan) << i;
    EXPECT_EQ(x.cluster_migrations, y.cluster_migrations) << i;
  }
}

TEST(Experiment, GridEnumerationIsWorkloadMajorAndComplete) {
  auto spec = acceptance_spec();
  spec.baselines = {"naive"};
  const Experiment e(spec);
  // 2 workloads x 3 caches x (4 partitioners x 1 t_mult + 1 baseline).
  EXPECT_EQ(e.cell_count(), 2u * 3u * 5u);
  const auto result = e.run(1);
  ASSERT_EQ(result.cells.size(), e.cell_count());
  EXPECT_EQ(result.cells.front().workload, "uniform-pipeline");
  EXPECT_EQ(result.cells.front().strategy, "auto");
  EXPECT_EQ(result.cells.back().workload, "FMRadio");
  EXPECT_TRUE(result.cells.back().is_baseline);
  EXPECT_EQ(result.cells.back().strategy, "naive");
}

TEST(Experiment, AcceptanceSweepRunsAndEveryCellSucceeds) {
  const Experiment e(acceptance_spec());
  ASSERT_GE(e.cell_count(), 24u);
  const auto result = e.run(2);
  EXPECT_EQ(result.threads, 2);
  EXPECT_EQ(result.failed_cells(), 0u);
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.ok) << cell.workload << "/" << cell.strategy << ": " << cell.error;
    EXPECT_GT(cell.run.sink_firings, 0);
    EXPECT_GT(cell.components, 0);
    // Counter coherence must survive the pool.
    EXPECT_EQ(cell.run.state_misses + cell.run.channel_misses + cell.run.io_misses,
              cell.run.cache.misses);
  }
}

TEST(Experiment, ParallelSweepIsCounterIdenticalToSerial) {
  auto spec = acceptance_spec();
  spec.baselines = {"naive", "scaled"};
  const Experiment e(spec);
  const auto serial = e.run(1);
  const auto parallel = e.run(2);
  const auto wide = e.run(4);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 2);
  expect_cells_identical(serial, parallel);
  expect_cells_identical(serial, wide);
}

TEST(Experiment, RepetitionsAgreeWithASingleMeasurement) {
  // repetitions > 1 re-measures each cell with a fresh simulate(); any
  // divergence fails the cell, and the cells a clean run reports are the
  // ones a single measurement reports.
  SweepSpec spec;
  spec.workloads = {"uniform-pipeline"};
  spec.caches = {{512, 8}};
  spec.partitioners = {"auto"};
  spec.baselines = {"naive"};
  spec.target_outputs = 128;
  const auto once = Experiment(spec).run(1);
  spec.repetitions = 3;
  const auto repeated = Experiment(spec).run(1);
  ASSERT_EQ(repeated.cells.size(), 2u);
  for (const CellResult& cell : repeated.cells) EXPECT_TRUE(cell.ok) << cell.error;
  expect_cells_identical(once, repeated);
}

TEST(Experiment, BadCellsAreRecordedNotThrown) {
  SweepSpec spec;
  spec.workloads = {"uniform-pipeline", "NoSuchApp"};
  spec.caches = {{512, 8}};
  spec.partitioners = {"auto", "no-such-partitioner", "pipeline-dp"};
  spec.target_outputs = 64;
  const auto result = Experiment(spec).run(2);
  ASSERT_EQ(result.cells.size(), 6u);
  EXPECT_EQ(result.failed_cells(), 4u);  // whole bad workload + bad partitioner

  // The unknown-partitioner cell carries the registry's key list.
  const auto& bad_partitioner = result.cells[1];
  EXPECT_EQ(bad_partitioner.strategy, "no-such-partitioner");
  EXPECT_FALSE(bad_partitioner.ok);
  EXPECT_NE(bad_partitioner.error.find("valid partitioner"), std::string::npos)
      << bad_partitioner.error;

  const auto& bad_workload = result.cells[3];
  EXPECT_EQ(bad_workload.workload, "NoSuchApp");
  EXPECT_FALSE(bad_workload.ok);
  EXPECT_NE(bad_workload.error.find("unknown workload"), std::string::npos)
      << bad_workload.error;
}

TEST(Experiment, InapplicableStrategyFailsOnlyItsCells) {
  SweepSpec spec;
  spec.workloads = {"FMRadio"};          // a dag
  spec.caches = {{1024, 8}};
  spec.partitioners = {"pipeline-dp"};   // pipeline-only
  spec.target_outputs = 64;
  const auto result = Experiment(spec).run(1);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_FALSE(result.cells[0].ok);
  EXPECT_FALSE(result.cells[0].error.empty());
}

TEST(Experiment, EmptySpecThrows) {
  EXPECT_THROW(Experiment(SweepSpec{}).run(1), Error);
  SweepSpec no_strategies;
  no_strategies.workloads = {"uniform-pipeline"};
  no_strategies.caches = {{512, 8}};
  EXPECT_THROW(Experiment(no_strategies).run(1), Error);
}

TEST(Experiment, NonPositiveOutputTargetIsASpecErrorForBatchCells) {
  for (const std::int64_t outputs : {std::int64_t{0}, std::int64_t{-5}}) {
    for (const bool baselines : {false, true}) {
      SweepSpec spec;
      spec.workloads = {"uniform-pipeline"};
      spec.caches = {{512, 8}};
      if (baselines) {
        spec.baselines = {"naive"};
      } else {
        spec.partitioners = {"auto"};
      }
      spec.target_outputs = outputs;
      try {
        (void)Experiment(spec).run(1);
        ADD_FAILURE() << "target_outputs " << outputs << " was accepted";
      } catch (const ContractViolation& e) {
        ADD_FAILURE() << "a spec error, not a contract violation: " << e.what();
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(),
                     "sweep spec needs target_outputs >= 1 for partitioner and "
                     "baseline cells");
      }
    }
  }
  // Serving cells never read target_outputs, so a serving-only spec stays valid.
  SweepSpec serving;
  serving.workloads = {"uniform-pipeline"};
  serving.caches = {{1024, 8}};
  serving.online.arrivals = {"steady-16"};
  serving.online.ticks = 4;
  serving.target_outputs = 0;
  const ExperimentResult result = Experiment(serving).run(1);
  EXPECT_EQ(result.failed_cells(), 0u);
  EXPECT_FALSE(result.cells.empty());
}

TEST(Experiment, OutOfRangeSimFactorIsASpecError) {
  // A NaN or non-positive factor used to clamp the measured cache to one
  // block and report its misses as a result.
  for (const double factor : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), 0.0, -2.0, 1e300,
                              1e-300}) {
    SweepSpec spec;
    spec.workloads = {"uniform-pipeline"};
    spec.caches = {{512, 8}};
    spec.partitioners = {"auto"};
    spec.target_outputs = 16;
    spec.sim_capacity_factor = factor;
    try {
      (void)Experiment(spec).run(1);
      ADD_FAILURE() << "sim_capacity_factor " << factor << " was accepted";
    } catch (const ContractViolation& e) {
      ADD_FAILURE() << "a spec error, not a contract violation: " << e.what();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("sim_capacity_factor"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Experiment, LlcFactorThatOverflowsTheLlcIsASpecError) {
  // The LLC is llc_factor times the augmented L1 (4 * 256 = 1024 words
  // here); a product past int64 used to wrap and measure on garbage.
  SweepSpec spec;
  spec.workloads = {"uniform-pipeline"};
  spec.caches = {{256, 8}};
  spec.cluster.arrivals = {"steady-16"};
  spec.cluster.ticks = 2;
  spec.cluster.llc_factor = std::numeric_limits<std::int64_t>::max() / 1024 + 1;
  try {
    (void)Experiment(spec).run(1);
    ADD_FAILURE() << "llc_factor " << spec.cluster.llc_factor << " was accepted";
  } catch (const ContractViolation& e) {
    ADD_FAILURE() << "a spec error, not a contract violation: " << e.what();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("llc_factor"), std::string::npos) << e.what();
  }
}

TEST(Experiment, CsvAndJsonEmission) {
  SweepSpec spec;
  spec.workloads = {"uniform-pipeline"};
  spec.caches = {{512, 8}};
  spec.partitioners = {"auto"};
  spec.baselines = {"naive"};
  spec.target_outputs = 64;
  const auto result = Experiment(spec).run(1);

  std::ostringstream csv;
  result.write_csv(csv);
  const std::string csv_text = csv.str();
  // Header + one line per cell.
  std::size_t lines = 0;
  for (const char c : csv_text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1 + result.cells.size());
  EXPECT_NE(csv_text.find("workload,cache_words"), std::string::npos);
  EXPECT_NE(csv_text.find("uniform-pipeline"), std::string::npos);
  EXPECT_NE(csv_text.find("baseline"), std::string::npos);

  std::ostringstream json;
  result.write_json(json);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"cells\": ["), std::string::npos);
  EXPECT_NE(json_text.find("\"workload\": \"uniform-pipeline\""), std::string::npos);
  EXPECT_NE(json_text.find("\"misses\": "), std::string::npos);
  EXPECT_EQ(json_text.find("\"error\""), std::string::npos);  // all cells ok
}

/// A small online grid: one pipeline workload, two caches, two arrival
/// shapes, one and two tenants.
SweepSpec online_spec() {
  SweepSpec spec;
  spec.workloads = {"uniform-pipeline"};
  spec.caches = {{512, 8}, {1024, 8}};
  spec.online.arrivals = {"steady-16", "bursty-64"};
  spec.online.tenant_counts = {1, 2};
  spec.online.ticks = 24;
  return spec;
}

TEST(Experiment, OnlineCellsRunAndRecordServingCoordinates) {
  const Experiment e(online_spec());
  // 1 workload x 2 caches x (2 arrivals x 2 tenant counts).
  EXPECT_EQ(e.cell_count(), 1u * 2u * 4u);
  const auto result = e.run(1);
  EXPECT_EQ(result.failed_cells(), 0u);
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.is_online);
    EXPECT_FALSE(cell.arrival.empty());
    EXPECT_GT(cell.tenants, 0);
    EXPECT_EQ(cell.resolved_strategy, "pipeline-half-full");
    EXPECT_EQ(cell.schedule_name, "online:pipeline-half-full");
    EXPECT_GT(cell.run.cache.misses, 0);
    EXPECT_GT(cell.server_steps, 0);
    // Every tenant consumed the whole pattern and drained it through.
    const std::int64_t per_tenant =
        workloads::total_arrivals(workloads::ArrivalRegistry::global().build(cell.arrival),
                                  online_spec().online.ticks);
    EXPECT_EQ(cell.run.source_firings, per_tenant * cell.tenants) << cell.arrival;
    EXPECT_EQ(cell.run.sink_firings, per_tenant * cell.tenants) << cell.arrival;
  }
  // More tenants on the same cache never miss less in aggregate per item.
  const CellResult& solo = result.cells[0];    // steady-16, 1 tenant
  const CellResult& duo = result.cells[1];     // steady-16, 2 tenants
  ASSERT_EQ(solo.arrival, duo.arrival);
  EXPECT_GE(duo.misses_per_input, solo.misses_per_input * 0.99);
}

TEST(Experiment, OnlineCellsAreThreadCountIndependentAndRepeatable) {
  auto spec = online_spec();
  spec.repetitions = 2;  // in-cell repeat-run tripwire
  spec.baselines = {"naive"};  // mix batch and online cells in one grid
  spec.partitioners = {"auto"};
  const Experiment e(spec);
  expect_cells_identical(e.run(1), e.run(3));
}

TEST(Experiment, OnlineCellFailuresAreRecordedNotThrown) {
  auto spec = online_spec();
  spec.workloads = {"FMRadio"};  // multirate dag: no online rule applies
  const auto result = Experiment(spec).run(1);
  ASSERT_EQ(result.failed_cells(), result.cells.size());
  for (const CellResult& cell : result.cells) {
    EXPECT_FALSE(cell.ok);
    EXPECT_NE(cell.error.find("no online rule applies"), std::string::npos);
  }
}

/// The online grid whose CSV is recorded under tests/golden/: three
/// workload shapes x two caches x four arrival patterns x 1-3 tenants.
SweepSpec golden_online_spec(const std::string& tenant_policy) {
  SweepSpec spec;
  spec.workloads = {"uniform-pipeline", "heavy-tail-pipeline", "layered-dag"};
  spec.caches = {{1024, 8}, {4096, 8}};
  spec.online.arrivals = {"steady-16", "bursty-64", "on-off-8x8", "bursty-64-shift-8"};
  spec.online.tenant_counts = {1, 2, 3};
  spec.online.ticks = 32;
  spec.online.tenant_policy = tenant_policy;
  return spec;
}

TEST(Experiment, OnlineCellsMatchTheRecordedGoldens) {
  // Byte-identity of the online cells' CSV rows, under both tenant
  // policies, against the files recorded in tests/golden/.
  for (const std::string policy : {"round-robin", "miss-aware"}) {
    std::string file = policy;
    std::replace(file.begin(), file.end(), '-', '_');
    std::ifstream in(std::string(CCS_GOLDEN_DIR) + "/online_cells_" + file + ".csv");
    ASSERT_TRUE(in) << "missing golden for " << policy;
    std::ostringstream golden;
    golden << in.rdbuf();
    std::ostringstream csv;
    Experiment(golden_online_spec(policy)).run(1).write_csv(csv);
    EXPECT_EQ(csv.str(), golden.str()) << policy;
  }
}

/// A small multicore grid: one pipeline workload, one cache, one arrival
/// shape, two tenants, 1-and-2 workers, two placement policies.
SweepSpec cluster_spec() {
  SweepSpec spec;
  spec.workloads = {"uniform-pipeline"};
  spec.caches = {{1024, 8}};
  spec.cluster.arrivals = {"bursty-64"};
  spec.cluster.tenant_counts = {2};
  spec.cluster.worker_counts = {1, 2};
  spec.cluster.placements = {"round-robin", "affinity"};
  spec.cluster.ticks = 16;
  return spec;
}

TEST(Experiment, ClusterCellsRunAndRecordMulticoreCoordinates) {
  const Experiment e(cluster_spec());
  // 1 workload x 1 cache x (1 arrival x 1 tenant count x 2 workers x 2 placements).
  EXPECT_EQ(e.cell_count(), 4u);
  const auto result = e.run(1);
  EXPECT_EQ(result.failed_cells(), 0u);
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.is_cluster);
    EXPECT_FALSE(cell.placement.empty());
    EXPECT_GT(cell.workers, 0);
    EXPECT_EQ(cell.schedule_name, "cluster:pipeline-half-full");
    EXPECT_GT(cell.run.cache.misses, 0);
    EXPECT_GT(cell.server_steps, 0);
    EXPECT_GT(cell.cluster_makespan, 0);
    // Every tenant consumed the whole pattern and drained it through.
    const std::int64_t per_tenant = workloads::total_arrivals(
        workloads::ArrivalRegistry::global().build(cell.arrival),
        cluster_spec().cluster.ticks);
    EXPECT_EQ(cell.run.sink_firings, per_tenant * cell.tenants) << cell.placement;
  }
  // Same placement, more workers: independent tenants spread out, so the
  // model makespan (max worker busy) can only improve.
  const CellResult& one_worker = result.cells[0];   // 1 worker, round-robin
  const CellResult& two_workers = result.cells[2];  // 2 workers, round-robin
  ASSERT_EQ(one_worker.placement, two_workers.placement);
  EXPECT_LE(two_workers.cluster_makespan, one_worker.cluster_makespan);
}

TEST(Experiment, ClusterCellsAreThreadCountIndependentAndRepeatable) {
  auto spec = cluster_spec();
  spec.repetitions = 2;        // in-cell repeat-run tripwire
  spec.partitioners = {"auto"};  // mix batch and cluster cells in one grid
  const Experiment e(spec);
  expect_cells_identical(e.run(1), e.run(3));
}

TEST(Experiment, ClusterCsvAndJsonCarryWorkerAndPlacementColumns) {
  const auto result = Experiment(cluster_spec()).run(1);
  std::ostringstream csv;
  result.write_csv(csv);
  EXPECT_NE(csv.str().find(",workers,placement,"), std::string::npos);
  EXPECT_NE(csv.str().find(",cluster_makespan,cluster_migrations,"), std::string::npos);
  EXPECT_NE(csv.str().find("cluster"), std::string::npos);
  EXPECT_NE(csv.str().find("affinity"), std::string::npos);
  std::ostringstream json;
  result.write_json(json);
  EXPECT_NE(json.str().find("\"kind\": \"cluster\""), std::string::npos);
  EXPECT_NE(json.str().find("\"placement\": \"affinity\""), std::string::npos);
  EXPECT_NE(json.str().find("\"workers\": 2"), std::string::npos);
  EXPECT_NE(json.str().find("\"cluster_makespan\""), std::string::npos);
}

TEST(Experiment, OnlineCsvAndJsonCarryArrivalAndTenantColumns) {
  const auto result = Experiment(online_spec()).run(1);
  std::ostringstream csv;
  result.write_csv(csv);
  EXPECT_NE(csv.str().find(",arrival,tenants,"), std::string::npos);
  EXPECT_NE(csv.str().find("online"), std::string::npos);
  EXPECT_NE(csv.str().find("bursty-64"), std::string::npos);
  std::ostringstream json;
  result.write_json(json);
  EXPECT_NE(json.str().find("\"kind\": \"online\""), std::string::npos);
  EXPECT_NE(json.str().find("\"arrival\": \"steady-16\""), std::string::npos);
  EXPECT_NE(json.str().find("\"tenants\": 2"), std::string::npos);
}

}  // namespace
}  // namespace ccs::core
