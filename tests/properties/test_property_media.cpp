// Cross-layer property of the network media (docs/networks.md §2): on random
// 8-op DAGs over a 2–4 processor bus, the three layers that replay a static
// schedule — the adequation that builds it, the executive VM and the graph
// of delays — must agree instant for instant under WCET, for every medium
// kind: immediate, TDMA with 1, 2 or 4 owner slots, a background-loaded
// bus, and CAN with and without non-preemptive blocking.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "blocks/discrete.hpp"
#include "exec/conformance.hpp"
#include "exec/executive_vm.hpp"
#include "random_graphs.hpp"
#include "sim/simulator.hpp"
#include "translate/graph_of_delays.hpp"

namespace ecsim {
namespace {

enum class Kind { kImmediate, kTdma1, kTdma2, kTdma4, kLoaded, kCan, kCanBlocking };

const char* name_of(Kind k) {
  switch (k) {
    case Kind::kImmediate: return "immediate";
    case Kind::kTdma1: return "tdma1";
    case Kind::kTdma2: return "tdma2";
    case Kind::kTdma4: return "tdma4";
    case Kind::kLoaded: return "loaded";
    case Kind::kCan: return "can";
    case Kind::kCanBlocking: return "can_blocking";
  }
  return "?";
}

constexpr std::size_t kGraphs = 60;
constexpr std::size_t kPeriods = 3;
// A multiple of every slot × slots below: the documented precondition for
// strictly periodic TDMA executions (aaa/architecture_graph.hpp).
constexpr double kPeriod = 1.0;

struct Workload {
  aaa::AlgorithmGraph alg{"", 0.0};
  aaa::ArchitectureGraph arch;
  aaa::Schedule sched{0, 0};
};

Workload workload(Kind kind, std::size_t graph) {
  math::Rng rng(1000 * (static_cast<std::uint64_t>(kind) + 1) + graph);
  Workload w;
  w.alg = ecsim::testing::random_dag(rng, 8, kPeriod);
  const auto procs = static_cast<std::size_t>(rng.uniform_int(2, 4));
  w.arch = aaa::ArchitectureGraph::bus_architecture(
      procs, rng.uniform(1e3, 1e5), rng.uniform(0.0, 1e-4));
  const double slots[] = {2.5e-4, 5e-4, 1e-3};
  const double slot = slots[rng.uniform_int(0, 2)];
  switch (kind) {
    case Kind::kImmediate: break;
    case Kind::kTdma1: w.arch.set_tdma(0, slot, 1); break;
    case Kind::kTdma2: w.arch.set_tdma(0, slot, 2); break;
    case Kind::kTdma4: w.arch.set_tdma(0, slot, 4); break;
    case Kind::kLoaded:
      w.arch.set_background_load(0, rng.uniform(0.1, 0.8));
      break;
    case Kind::kCan: w.arch.set_can(0, 0.0); break;
    case Kind::kCanBlocking:
      w.arch.set_can(0, rng.uniform(1e-4, 1e-3));
      break;
  }
  w.sched = aaa::adequate(w.alg, w.arch);
  return w;
}

std::string param_name(const ::testing::TestParamInfo<Kind>& p) {
  return name_of(p.param);
}

/// Graph-of-delays leg: every operation's completion instants equal the
/// schedule's end + k·period.
void check_graph_of_delays(Kind kind) {
  for (std::size_t g = 0; g < kGraphs; ++g) {
    const Workload w = workload(kind, g);
    ASSERT_LT(w.sched.makespan(), kPeriod);
    sim::Model m;
    const translate::GraphOfDelays god =
        translate::build_graph_of_delays(m, w.alg, w.arch, w.sched, {});
    for (aaa::OpId op = 0; op < w.alg.num_operations(); ++op) {
      auto& n = m.add<blocks::EventCounter>("done_" + w.alg.op(op).name);
      translate::wire_completion(m, god, op, n, 0);
    }
    sim::Simulator s(
        m, sim::SimOptions{.end_time = kPeriods * kPeriod - 1e-3});
    s.run();
    for (aaa::OpId op = 0; op < w.alg.num_operations(); ++op) {
      const std::string& name = w.alg.op(op).name;
      const auto times = s.trace().activation_times_by_name("done_" + name);
      ASSERT_EQ(times.size(), kPeriods) << name << " graph " << g;
      for (std::size_t k = 0; k < kPeriods; ++k) {
        EXPECT_NEAR(times[k],
                    w.sched.of_op(op).end + static_cast<double>(k) * kPeriod,
                    1e-9)
            << name_of(kind) << " graph " << g << " op " << name
            << " iteration " << k;
      }
    }
  }
}

/// VM leg: the WCET run of the generated executives conforms to the
/// schedule.
void check_vm(Kind kind) {
  for (std::size_t g = 0; g < kGraphs; ++g) {
    const Workload w = workload(kind, g);
    const aaa::GeneratedCode code =
        aaa::generate_executives(w.alg, w.arch, w.sched);
    exec::VmOptions opts;
    opts.iterations = kPeriods;
    opts.period = kPeriod;
    const exec::VmResult vm =
        exec::run_executives(w.alg, w.arch, w.sched, code, opts);
    ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
    const exec::ConformanceReport rep =
        exec::check_wcet_conformance(w.alg, w.arch, w.sched, vm, kPeriod);
    EXPECT_TRUE(rep.ok) << name_of(kind) << " graph " << g << ": "
                        << rep.violations;
  }
}

class GodMediaProperty : public ::testing::TestWithParam<Kind> {};

TEST_P(GodMediaProperty, ReplaysScheduleUnderWcet) {
  check_graph_of_delays(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, GodMediaProperty,
                         ::testing::Values(Kind::kImmediate, Kind::kTdma1,
                                           Kind::kTdma2, Kind::kTdma4,
                                           Kind::kLoaded, Kind::kCan,
                                           Kind::kCanBlocking),
                         param_name);

class VmMediaProperty : public ::testing::TestWithParam<Kind> {};

TEST_P(VmMediaProperty, WcetRunConformsToSchedule) {
  check_vm(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, VmMediaProperty,
                         ::testing::Values(Kind::kImmediate, Kind::kTdma1,
                                           Kind::kTdma2, Kind::kTdma4,
                                           Kind::kLoaded),
                         param_name);

// Open defect: ROADMAP "CAN WCET conformance (defect (b) of the lifecycle
// benchmark)". The adequation commits contended CAN frames in
// list-scheduling order, the VM in arbitration order, so the WCET run
// departs from the schedule on contended graphs. Enable with that fix.
TEST(VmMediaProperty, DISABLED_CanWcetRunConformsToSchedule) {
  check_vm(Kind::kCan);
  check_vm(Kind::kCanBlocking);
}

}  // namespace
}  // namespace ecsim
