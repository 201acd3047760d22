#include "exec/conformance.hpp"

#include <gtest/gtest.h>

#include "aaa/adequation.hpp"

namespace ecsim::exec {
namespace {

struct DistributedChain {
  AlgorithmGraph alg{"chain", 0.01};
  ArchitectureGraph arch{
      aaa::ArchitectureGraph::bus_architecture(2, 1e4, 1e-5)};
  Schedule sched{0, 0};
  GeneratedCode code;

  DistributedChain() {
    const aaa::OpId s = alg.add_simple("sense", aaa::OpKind::kSensor, 1e-4, "P0");
    const aaa::OpId c = alg.add_simple("ctrl", aaa::OpKind::kCompute, 5e-4, "P1");
    const aaa::OpId a = alg.add_simple("act", aaa::OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
    sched = aaa::adequate(alg, arch);
    code = aaa::generate_executives(alg, arch, sched);
  }
};

TEST(Conformance, WcetExecutionMatchesScheduleExactly) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 20;
  opts.period = f.alg.period();
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  const ConformanceReport rep =
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
  EXPECT_TRUE(rep.ok) << rep.violations;
  EXPECT_EQ(rep.checked_instances, 60u);
  EXPECT_LT(rep.max_time_error, 1e-9);
}

TEST(Conformance, RandomExecutionTimesStillPreserveOrder) {
  DistributedChain f;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    VmOptions opts;
    opts.iterations = 10;
    opts.period = f.alg.period();
    opts.exec_time = uniform_fraction_exec_time(0.1);
    opts.seed = seed;
    const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
    const ConformanceReport rep =
        check_order_preservation(f.alg, f.arch, f.sched, vm);
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": " << rep.violations;
  }
}

TEST(Conformance, DeadlockReportedAsViolation) {
  DistributedChain f;
  GeneratedCode bad = f.code;
  for (auto& prog : bad.programs) {
    std::erase_if(prog.instrs, [](const aaa::Instr& ins) {
      return ins.kind == aaa::InstrKind::kSend;
    });
  }
  VmOptions opts;
  opts.iterations = 1;
  opts.period = 0.01;
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, bad, opts);
  const ConformanceReport rep =
      check_order_preservation(f.alg, f.arch, f.sched, vm);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.violations.find("deadlock"), std::string::npos);
}

TEST(Conformance, FlagsTimeMismatchWhenFasterThanWcet) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 2;
  opts.period = f.alg.period();
  opts.exec_time = uniform_fraction_exec_time(0.2);
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  const ConformanceReport rep =
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
  EXPECT_FALSE(rep.ok);  // faster than WCET => instants differ
  EXPECT_GT(rep.max_time_error, 0.0);
}

/// A run where every instance misses its schedule instant: the report
/// spells out only the first few and counts the rest, so its length does
/// not grow with the run while ok/max_time_error/checked_instances still
/// cover every instance.
TEST(Conformance, ManyViolationsAreCountedNotAllSpelledOut) {
  DistributedChain f;
  VmOptions opts;
  opts.period = f.alg.period();
  for (const std::size_t iterations : {10u, 1000u}) {
    opts.iterations = iterations;
    VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
    for (OpInstance& oi : vm.ops) {
      oi.start += 1e-3;
      oi.end += 1e-3;
    }
    const ConformanceReport rep =
        check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
    const std::size_t n = 3 * iterations;
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.checked_instances, n);
    EXPECT_EQ(rep.num_violations, n);
    EXPECT_NEAR(rep.max_time_error, 1e-3, 1e-12);
    EXPECT_LT(rep.violations.size(), 120 * (kReportedViolations + 1));
    EXPECT_NE(rep.violations.find("... and " +
                                  std::to_string(n - kReportedViolations) +
                                  " more"),
              std::string::npos)
        << rep.violations;
  }
}

TEST(Conformance, ManyOrderViolationsAreCountedNotAllSpelledOut) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 500;
  opts.period = f.alg.period();
  VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  // Every instance on P1 (ctrl) claims to run on P0, where it overlaps
  // nothing but breaks the wrong-processor rule once per instance.
  std::size_t moved = 0;
  for (OpInstance& oi : vm.ops) {
    if (oi.proc == 1) {
      oi.proc = 0;
      ++moved;
    }
  }
  const ConformanceReport rep =
      check_order_preservation(f.alg, f.arch, f.sched, vm);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.checked_instances, vm.ops.size());
  EXPECT_GE(rep.num_violations, moved);
  EXPECT_LT(rep.violations.size(), 200 * (kReportedViolations + 1));
  EXPECT_NE(rep.violations.find(
                "... and " +
                std::to_string(rep.num_violations - kReportedViolations) +
                " more"),
            std::string::npos);
}

TEST(Conformance, UnscheduledOpStillThrows) {
  DistributedChain f;
  VmOptions opts;
  opts.period = f.alg.period();
  VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  vm.ops.front().op = f.alg.num_operations();  // never scheduled
  EXPECT_THROW(
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period),
      std::out_of_range);
  EXPECT_THROW(check_order_preservation(f.alg, f.arch, f.sched, vm),
               std::out_of_range);
}

}  // namespace
}  // namespace ecsim::exec
