#include "par/network_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace ecsim::sweep {
namespace {

NetworkGrid small_network_grid() {
  NetworkGrid grid = network_servo_grid(0.01, 0.12);  // short unit-test horizon
  grid.bus_loads = {0.0, 0.5};
  grid.scenarios = {NetworkScenario::kCan, NetworkScenario::kTdma};
  return grid;
}

bool bit_identical(const std::vector<NetworkCell>& a,
                   const std::vector<NetworkCell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NetworkCell& x = a[i];
    const NetworkCell& y = b[i];
    if (x.bus_load != y.bus_load || x.scenario != y.scenario ||
        x.act_latency_mean != y.act_latency_mean ||
        x.act_jitter != y.act_jitter || x.nominal_iae != y.nominal_iae ||
        x.nominal_cost != y.nominal_cost || x.retuned_iae != y.retuned_iae ||
        x.retuned_cost != y.retuned_cost ||
        x.stability_margin != y.stability_margin ||
        x.schedulable != y.schedulable || x.stable != y.stable) {
      return false;
    }
  }
  return true;
}

TEST(NetworkSweep, ScenarioNamesAndCodesRoundTrip) {
  EXPECT_EQ(parse_scenario("can"), NetworkScenario::kCan);
  EXPECT_EQ(parse_scenario("tdma"), NetworkScenario::kTdma);
  EXPECT_STREQ(to_string(NetworkScenario::kCan), "can");
  EXPECT_STREQ(to_string(NetworkScenario::kTdma), "tdma");
  EXPECT_DOUBLE_EQ(scenario_code(NetworkScenario::kCan), 0.0);
  EXPECT_DOUBLE_EQ(scenario_code(NetworkScenario::kTdma), 1.0);
  for (const NetworkScenario s :
       {NetworkScenario::kCan, NetworkScenario::kTdma}) {
    EXPECT_EQ(scenario_of_code(scenario_code(s)), s);
    EXPECT_EQ(parse_scenario(to_string(s)), s);
  }
  EXPECT_THROW(parse_scenario("flexray"), std::invalid_argument);
  EXPECT_THROW(scenario_of_code(2.0), std::invalid_argument);
}

TEST(NetworkSweep, GridRowMajorAndPopulated) {
  const NetworkGrid grid = small_network_grid();
  par::BatchOptions batch;
  batch.threads = 1;
  const std::vector<NetworkCell> cells = run_network_sweep(grid, batch);
  ASSERT_EQ(cells.size(), 4u);  // 2 loads x {can, tdma}, row-major
  EXPECT_DOUBLE_EQ(cells[0].bus_load, 0.0);
  EXPECT_DOUBLE_EQ(cells[0].scenario, 0.0);
  EXPECT_DOUBLE_EQ(cells[1].scenario, 1.0);
  EXPECT_DOUBLE_EQ(cells[2].bus_load, 0.5);
  for (const NetworkCell& c : cells) {
    EXPECT_TRUE(c.schedulable);
    EXPECT_TRUE(c.stable);
    EXPECT_GT(c.act_latency_mean, 0.0);
    EXPECT_GT(c.nominal_iae, 0.0);
    EXPECT_GT(c.retuned_iae, 0.0);
    // The delay-aware retune's closed loop must come out stable.
    EXPECT_GT(c.stability_margin, 0.0);
    EXPECT_LE(c.stability_margin, 1.0);
  }
  // Background contention can only lengthen the measured actuation latency.
  EXPECT_GE(cells[2].act_latency_mean, cells[0].act_latency_mean);  // can
  EXPECT_GE(cells[3].act_latency_mean, cells[1].act_latency_mean);  // tdma
}

TEST(NetworkSweep, BitIdenticalAcrossThreadCounts) {
  const NetworkGrid grid = small_network_grid();
  std::vector<NetworkCell> reference;
  for (const std::size_t threads : {1u, 2u, 5u}) {
    par::BatchOptions batch;
    batch.threads = threads;
    const std::vector<NetworkCell> cells = run_network_sweep(grid, batch);
    if (threads == 1u) {
      reference = cells;
    } else {
      EXPECT_TRUE(bit_identical(reference, cells))
          << "threads=" << threads << " diverged from serial";
    }
  }
}

TEST(NetworkSweep, InfeasibleCellReportsUnschedulable) {
  NetworkGrid grid = small_network_grid();
  grid.bus_loads = {0.0};
  grid.scenarios = {NetworkScenario::kCan};
  grid.bus_bandwidth = 10.0;  // one transfer takes ~0.8 s >> the 0.01 s period
  const std::vector<NetworkCell> cells = run_network_sweep(grid, {});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].schedulable);
  EXPECT_FALSE(cells[0].stable);
}

TEST(NetworkSweep, CsvRendersEveryCell) {
  const NetworkGrid grid = small_network_grid();
  par::BatchOptions batch;
  batch.threads = 2;
  const std::vector<NetworkCell> cells = run_network_sweep(grid, batch);
  const std::string csv = to_csv(cells);
  EXPECT_NE(csv.find("bus_load,scenario,act_latency_mean"), std::string::npos);
  EXPECT_NE(csv.find("stability_margin,schedulable,stable"),
            std::string::npos);
  EXPECT_EQ(
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
      cells.size() + 1);
}

/// The bits of one cell: its nine doubles as IEEE patterns, then
/// schedulable and stable.
using CellBits = std::array<std::uint64_t, 11>;

CellBits bits_of(const NetworkCell& c) {
  const double d[] = {c.bus_load,     c.scenario,         c.act_latency_mean,
                      c.act_jitter,   c.nominal_iae,      c.nominal_cost,
                      c.retuned_iae,  c.retuned_cost,     c.stability_margin};
  CellBits b{};
  for (std::size_t i = 0; i < std::size(d); ++i) {
    std::memcpy(&b[i], &d[i], sizeof(double));
  }
  b[9] = c.schedulable ? 1 : 0;
  b[10] = c.stable ? 1 : 0;
  return b;
}

std::string row(const CellBits& b) {
  std::string s = "    {";
  for (std::size_t i = 0; i < b.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, i < 9 ? "0x%016" PRIx64 : "%" PRIu64, b[i]);
    s += buf;
    s += i + 1 == b.size() ? "},\n" : (i % 3 == 2 ? ",\n     " : ", ");
  }
  return s;
}

// EXP-N1 as committed: every cell of run_network_sweep(network_servo_grid()),
// row-major over the 5 bus loads x {can, tdma}.
constexpr CellBits kExpN1[] = {
    {0x0000000000000000, 0x0000000000000000, 0x3f60385c67dfe4d6,
     0x3cc4000000000000, 0x3f922b090562c9db, 0x3f8829eedcd19a2a,
     0x3f90432f8d82c442, 0x3f86ad74b3e8fa91, 0x3fe44312cd03c8ec,
     1, 1},
    {0x0000000000000000, 0x3ff0000000000000, 0x3f62ad81adea893f,
     0x3c90000000000000, 0x3f93e34c83788897, 0x3f890826eec73cf6,
     0x3f9060f5018319a0, 0x3f86fafbebc05058, 0x3fe42d4b04f2f16c,
     1, 1},
    {0x3fc999999999999a, 0x0000000000000000, 0x3f60624dd2f1abaa,
     0x3cc5000000000000, 0x3f9244ad5961ef8e, 0x3f88377049fd5a3d,
     0x3f90451cf2ebaefa, 0x3f86b2911fd8d8a5, 0x3fe44183edb2cf7e,
     1, 1},
    {0x3fc999999999999a, 0x3ff0000000000000, 0x3f62d77318fc5013,
     0x3c88000000000000, 0x3f94052eee985cd3, 0x3f8918a847651b0e,
     0x3f906323090cdd31, 0x3f870039d5b76a91, 0x3fe42bf5016bbb96,
     1, 1},
    {0x3fd999999999999a, 0x0000000000000000, 0x3f60a8358564a1b2,
     0x3cc4000000000000, 0x3f927045f1bf3b5c, 0x3f884e52dbee6ae5,
     0x3f9048567430f3de, 0x3f86bb1a17d9c4b5, 0x3fe43ef41524a81b,
     1, 1},
    {0x3fd999999999999a, 0x3ff0000000000000, 0x3f631d5acb6f461b,
     0x3c90000000000000, 0x3f943ee476dce3cf, 0x3f8934b57693a550,
     0x3f9066cd27cca598, 0x3f8708fc467f05c1, 0x3fe429c2d4692989,
     1, 1},
    {0x3fe3333333333333, 0x0000000000000000, 0x3f613404ea4a8db5,
     0x3cc4000000000000, 0x3f92cc8dab012ea7, 0x3f887d91fac261f7,
     0x3f904ed632816333, 0x3f86cc3cbe9dde68, 0x3fe439f54fd4dc14,
     1, 1},
    {0x3fe3333333333333, 0x3ff0000000000000, 0x3f63a92a3055321d,
     0x3c90000000000000, 0x3f94b7f1bd93d9c1, 0x3f896ef548253b79,
     0x3f906e4193f04ca0, 0x3f871a985f0da1cc, 0x3fe4257b6f4567ea,
     1, 1},
    {0x3fe999999999999a, 0x0000000000000000, 0x3f62d77318fc51e2,
     0x3cc3000000000000, 0x3f94052eee985cd6, 0x3f8918a847651b09,
     0x3f906323090cdd81, 0x3f870039d5b76a9f, 0x3fe42bf5016bbb76,
     1, 1},
    {0x3fe999999999999a, 0x3ff0000000000000, 0x3f654c985f06f64a,
     0x3c98000000000000, 0x3f9659876ad999c9, 0x3f8a317465d65324,
     0x3f9086c1202807a3, 0x3f87503d1f7fc5e8, 0x3fe419841948bb73,
     1, 1},
};

TEST(NetworkSweep, CanonicalGridBitsArePinned) {
  const std::vector<NetworkCell> cells =
      run_network_sweep(network_servo_grid(), {});
  std::string now;
  for (const NetworkCell& c : cells) now += row(bits_of(c));
  ASSERT_EQ(cells.size(), std::size(kExpN1)) << "the grid now gives\n" << now;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(bits_of(cells[i]), kExpN1[i])
        << "cell " << i << " moved; the grid now gives\n" << now;
  }
}

}  // namespace
}  // namespace ecsim::sweep
