#include "par/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "par/fault_sweep.hpp"
#include "par/monte_carlo.hpp"
#include "translate/cosim.hpp"

namespace ecsim::sweep {
namespace {

TimingGrid small_timing_grid() {
  TimingGrid grid;
  grid.loop = servo_loop(0.01, 0.12);  // short horizon: this is a unit test
  grid.latency_fracs = {0.0, 0.2, 0.4};
  grid.jitter_fracs = {0.0, 0.3};
  return grid;
}

// Exact (bitwise, not approximate) equality of every cell field. A
// field-by-field compare rather than memcmp: struct padding is
// indeterminate.
bool bit_identical(const std::vector<SweepCell>& a,
                   const std::vector<SweepCell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SweepCell& x = a[i];
    const SweepCell& y = b[i];
    if (x.la_frac != y.la_frac || x.jitter_frac != y.jitter_frac ||
        x.bus_bandwidth != y.bus_bandwidth || x.wcet_scale != y.wcet_scale ||
        x.iae != y.iae || x.ise != y.ise || x.itae != y.itae ||
        x.cost != y.cost || x.overshoot_pct != y.overshoot_pct ||
        x.act_latency_mean != y.act_latency_mean ||
        x.act_jitter != y.act_jitter || x.stable != y.stable) {
      return false;
    }
  }
  return true;
}

TEST(Sweep, TimingGridRowMajorAndPopulated) {
  const TimingGrid grid = small_timing_grid();
  par::BatchOptions batch;
  batch.threads = 1;
  const auto cells = SweepRunner(batch).run(grid);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_DOUBLE_EQ(cells[0].la_frac, 0.0);
  EXPECT_DOUBLE_EQ(cells[0].jitter_frac, 0.0);
  EXPECT_DOUBLE_EQ(cells[1].jitter_frac, 0.3);
  EXPECT_DOUBLE_EQ(cells[4].la_frac, 0.4);
  for (const SweepCell& c : cells) {
    EXPECT_GT(c.iae, 0.0);
    EXPECT_TRUE(c.stable);
  }
  // Latency degrades performance monotonically on this grid (EXP-C1 shape).
  EXPECT_GT(cells[4].iae, cells[0].iae);
}

TEST(Sweep, TimingGridBitIdenticalAcrossThreadCounts) {
  const TimingGrid grid = small_timing_grid();
  std::vector<SweepCell> reference;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    par::BatchOptions batch;
    batch.threads = threads;
    const auto cells = SweepRunner(batch).run(grid);
    if (threads == 1u) {
      reference = cells;
    } else {
      EXPECT_TRUE(bit_identical(reference, cells))
          << "threads=" << threads << " diverged from serial";
    }
  }
}

TEST(Sweep, ArchitectureGridThroughFullFlow) {
  ArchitectureGrid grid;
  grid.loop = servo_loop(0.01, 0.12);
  grid.processors = 2;
  grid.bus_bandwidths = {1e5, 1e3};
  grid.wcet_scales = {1.0, 3.0};
  par::BatchOptions batch;
  batch.threads = 2;
  const auto cells = SweepRunner(batch).run(grid);
  ASSERT_EQ(cells.size(), 4u);
  // Heavier controller on a slower bus cannot beat the light/fast corner.
  EXPECT_GE(cells[3].act_latency_mean, cells[0].act_latency_mean);
  for (const SweepCell& c : cells) EXPECT_GT(c.bus_bandwidth, 0.0);
}

TEST(Sweep, ArchitectureCellOverrunningThePeriodIsMarkedNotThrown) {
  ArchitectureGrid grid;
  grid.loop = servo_loop(0.01, 0.12);
  grid.dist.bind_ctrl = "P1";  // controller across the bus
  grid.bus_bandwidths = {1e5, 1e3};
  grid.wcet_scales = {1.0, 4.0};
  const auto cells = SweepRunner().run(grid);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_TRUE(cells[0].stable);
  EXPECT_TRUE(std::isfinite(cells[0].cost));
  // 1e3 bus units/s with a 4x controller WCET does not fit the 10 ms period.
  const SweepCell& over = cells[3];
  EXPECT_FALSE(over.stable);
  EXPECT_TRUE(std::isnan(over.cost));
  EXPECT_TRUE(std::isnan(over.act_latency_mean));
  EXPECT_EQ(over.bus_bandwidth, 1e3);
  EXPECT_EQ(over.wcet_scale, 4.0);
  const std::string map =
      heatmap(cells, grid.bus_bandwidths, grid.wcet_scales, "bus bw",
              "WCET scale", &SweepCell::cost, "control cost");
  EXPECT_NE(map.find("n/a"), std::string::npos);
}

TEST(Sweep, CsvAndHeatmapRender) {
  const TimingGrid grid = small_timing_grid();
  par::BatchOptions batch;
  batch.threads = 2;
  const auto cells = SweepRunner(batch).run(grid);
  const std::string csv = to_csv(cells);
  EXPECT_NE(csv.find("la_frac,jitter_frac"), std::string::npos);
  // Header + one line per cell.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            cells.size() + 1);
  const std::string map =
      heatmap(cells, grid.latency_fracs, grid.jitter_fracs, "La/Ts",
              "jitter/Ts", &SweepCell::cost, "control cost");
  EXPECT_NE(map.find("control cost"), std::string::npos);
  EXPECT_NE(map.find("0.4"), std::string::npos);
  EXPECT_THROW(heatmap(cells, grid.latency_fracs, {0.1}, "r", "c",
                       &SweepCell::iae, "t"),
               std::invalid_argument);
}

TEST(MonteCarlo, DeterministicAcrossThreadCountsAndJitterAppears) {
  // Two-processor loop with the controller across the bus: actual times
  // below WCET make latencies vary per trial.
  const translate::LoopSpec loop = servo_loop(0.01, 0.1);
  translate::DistributedSpec dist;
  dist.bind_ctrl = "P1";  // force the controller onto the second processor
  const aaa::AlgorithmGraph alg = translate::make_loop_algorithm(loop, dist);
  const aaa::Schedule sched = aaa::adequate(alg, dist.arch);
  const aaa::GeneratedCode code =
      aaa::generate_executives(alg, dist.arch, sched);

  MonteCarloSpec spec;
  spec.trials = 24;
  spec.iterations = 10;
  spec.bcet_fraction = 0.4;
  auto run_with = [&](std::size_t threads) {
    par::BatchOptions batch;
    batch.threads = threads;
    batch.seed = 7;
    return run_monte_carlo(alg, dist.arch, sched, code, spec, batch);
  };
  const MonteCarloResult serial = run_with(1);
  EXPECT_EQ(serial.deadlocks, 0u);
  ASSERT_EQ(serial.io_ops.size(), 2u);  // sense + act
  EXPECT_EQ(serial.io_ops[0].name, "sense");
  EXPECT_EQ(serial.io_ops[1].name, "act");
  // Random execution times make the actuation instant move per period.
  EXPECT_GT(serial.io_ops[1].jitter.mean, 0.0);
  EXPECT_GT(serial.makespan.max, 0.0);

  for (const std::size_t threads : {2u, 7u}) {
    const MonteCarloResult par_run = run_with(threads);
    for (std::size_t k = 0; k < serial.io_ops.size(); ++k) {
      EXPECT_EQ(serial.io_ops[k].mean_latency.mean,
                par_run.io_ops[k].mean_latency.mean);
      EXPECT_EQ(serial.io_ops[k].jitter.p95, par_run.io_ops[k].jitter.p95);
      EXPECT_EQ(serial.io_ops[k].max_latency.max,
                par_run.io_ops[k].max_latency.max);
    }
    EXPECT_EQ(serial.makespan.mean, par_run.makespan.mean);
  }
  EXPECT_NE(to_string(serial).find("sense"), std::string::npos);
}

// Per-cell progress/latency metrics (PR 7): the shared registry attached to
// BatchOptions sees one `sweep.cells_completed` tick and one
// `sweep.cell_wall_us` sample per cell, and the quantiles are queryable.
TEST(Sweep, CellMetricsCountEveryCell) {
  const TimingGrid grid = small_timing_grid();
  const std::size_t n = grid.latency_fracs.size() * grid.jitter_fracs.size();
  obs::MetricsRegistry reg;
  par::BatchOptions batch;
  batch.threads = 2;
  batch.metrics = &reg;
  const std::vector<SweepCell> cells = SweepRunner(batch).run(grid);
  ASSERT_EQ(cells.size(), n);
  EXPECT_EQ(reg.counter("sweep.cells_completed").value(), n);
  const obs::Histogram& wall = reg.histogram("sweep.cell_wall_us");
  EXPECT_EQ(wall.count(), n);
  EXPECT_GT(wall.sum(), 0.0);
  EXPECT_GE(wall.quantile(0.99), wall.quantile(0.5));
  // And the grid results are untouched by the instrumentation.
  EXPECT_TRUE(bit_identical(cells, SweepRunner(par::BatchOptions{}).run(grid)));
}

TEST(MonteCarlo, BatchWidthNeverChangesTheStatistics) {
  // batch_width only sets how many trials ride one BatchRunner task; seeds
  // are drawn per trial, so every width reproduces the width-1 statistics
  // bit for bit (and the pre-PR-8 one-trial-per-task behavior).
  const translate::LoopSpec loop = servo_loop(0.01, 0.1);
  translate::DistributedSpec dist;
  dist.bind_ctrl = "P1";
  const aaa::AlgorithmGraph alg = translate::make_loop_algorithm(loop, dist);
  const aaa::Schedule sched = aaa::adequate(alg, dist.arch);
  const aaa::GeneratedCode code =
      aaa::generate_executives(alg, dist.arch, sched);
  MonteCarloSpec spec;
  spec.trials = 13;
  spec.iterations = 8;
  spec.batch_width = 1;
  par::BatchOptions batch;
  batch.seed = 7;
  const MonteCarloResult ref =
      run_monte_carlo(alg, dist.arch, sched, code, spec, batch);
  EXPECT_EQ(ref.batch_width, 1u);
  EXPECT_GT(ref.trials_per_s, 0.0);
  for (const std::size_t width : {3u, 8u, 32u}) {  // 32 > trials: one task
    MonteCarloSpec s = spec;
    s.batch_width = width;
    const MonteCarloResult got =
        run_monte_carlo(alg, dist.arch, sched, code, s, batch);
    EXPECT_EQ(got.batch_width, width);
    ASSERT_EQ(got.io_ops.size(), ref.io_ops.size());
    for (std::size_t k = 0; k < ref.io_ops.size(); ++k) {
      EXPECT_EQ(ref.io_ops[k].mean_latency.mean,
                got.io_ops[k].mean_latency.mean);
      EXPECT_EQ(ref.io_ops[k].max_latency.max, got.io_ops[k].max_latency.max);
      EXPECT_EQ(ref.io_ops[k].jitter.p95, got.io_ops[k].jitter.p95);
    }
    EXPECT_EQ(ref.makespan.mean, got.makespan.mean);
    EXPECT_EQ(ref.deadlocks, got.deadlocks);
  }
}

TEST(MonteCarlo, DifferentSeedsDifferentDistributions) {
  const translate::LoopSpec loop = servo_loop(0.01, 0.1);
  translate::DistributedSpec dist;
  dist.bind_ctrl = "P1";
  const aaa::AlgorithmGraph alg = translate::make_loop_algorithm(loop, dist);
  const aaa::Schedule sched = aaa::adequate(alg, dist.arch);
  const aaa::GeneratedCode code =
      aaa::generate_executives(alg, dist.arch, sched);
  MonteCarloSpec spec;
  spec.trials = 8;
  spec.iterations = 8;
  par::BatchOptions a, b;
  a.seed = 1;
  b.seed = 2;
  const auto ra = run_monte_carlo(alg, dist.arch, sched, code, spec, a);
  const auto rb = run_monte_carlo(alg, dist.arch, sched, code, spec, b);
  EXPECT_NE(ra.io_ops[1].mean_latency.mean, rb.io_ops[1].mean_latency.mean);
}

TEST(FaultMonteCarlo, BatchWidthNeverChangesTheCells) {
  // Trial t's fault seed stays base_seed + t at every width, so the cell
  // list — and everything summarized from it — is width-invariant.
  FaultMonteCarloSpec spec;
  spec.loop = servo_loop(0.01, 0.1);
  spec.dist.bind_ctrl = "P1";
  spec.loss_rate = 0.3;
  spec.trials = 4;
  spec.base_seed = 11;
  spec.batch_width = 1;
  const FaultMonteCarloResult ref = run_fault_monte_carlo(spec, {});
  EXPECT_EQ(ref.batch_width, 1u);
  EXPECT_GT(ref.trials_per_s, 0.0);
  ASSERT_EQ(ref.cells.size(), 4u);
  spec.batch_width = 4;
  const FaultMonteCarloResult got = run_fault_monte_carlo(spec, {});
  EXPECT_EQ(got.batch_width, 4u);
  ASSERT_EQ(got.cells.size(), ref.cells.size());
  for (std::size_t i = 0; i < ref.cells.size(); ++i) {
    EXPECT_EQ(ref.cells[i].fault_seed, got.cells[i].fault_seed);
    EXPECT_EQ(ref.cells[i].iae, got.cells[i].iae);
    EXPECT_EQ(ref.cells[i].cost, got.cells[i].cost);
    EXPECT_EQ(ref.cells[i].messages_lost, got.cells[i].messages_lost);
  }
  EXPECT_EQ(ref.cost.mean, got.cost.mean);
  EXPECT_EQ(ref.unstable_trials, got.unstable_trials);
}

}  // namespace
}  // namespace ecsim::sweep
