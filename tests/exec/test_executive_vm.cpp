#include "exec/executive_vm.hpp"

#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "obs/metrics.hpp"

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

TEST(ExecutiveVm, SingleIterationMatchesScheduleUnderWcet) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 1;
  opts.period = f.alg.period();
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
  ASSERT_EQ(vm.ops.size(), 3u);
  for (const OpInstance& oi : vm.ops) {
    const aaa::ScheduledOp& so = f.sched.of_op(oi.op);
    EXPECT_NEAR(oi.start, so.start, 1e-12) << f.alg.op(oi.op).name;
    EXPECT_NEAR(oi.end, so.end, 1e-12) << f.alg.op(oi.op).name;
  }
}

TEST(ExecutiveVm, PeriodicIterationsShiftByPeriod) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 5;
  opts.period = f.alg.period();
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  ASSERT_FALSE(vm.deadlock);
  const auto ends = vm.completions(f.alg.find("act"));
  ASSERT_EQ(ends.size(), 5u);
  const aaa::Time first = f.sched.of_op(f.alg.find("act")).end;
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(ends[k], first + 0.01 * static_cast<double>(k), 1e-12);
  }
}

TEST(ExecutiveVm, ShorterExecutionTimesNeverLater) {
  DistributedChain f;
  VmOptions wcet_opts;
  wcet_opts.iterations = 10;
  wcet_opts.period = f.alg.period();
  const VmResult wcet = run_executives(f.alg, f.arch, f.sched, f.code, wcet_opts);
  VmOptions fast_opts = wcet_opts;
  fast_opts.exec_time = uniform_fraction_exec_time(0.3);
  fast_opts.seed = 42;
  const VmResult fast = run_executives(f.alg, f.arch, f.sched, f.code, fast_opts);
  ASSERT_FALSE(fast.deadlock);
  const auto w = wcet.completions(f.alg.find("act"));
  const auto q = fast.completions(f.alg.find("act"));
  ASSERT_EQ(w.size(), q.size());
  for (std::size_t k = 0; k < w.size(); ++k) {
    EXPECT_LE(q[k], w[k] + 1e-12);  // WCET prediction is an upper bound
  }
}

TEST(ExecutiveVm, SensorWaitsForPeriodRelease) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 3;
  opts.period = 0.01;
  opts.exec_time = uniform_fraction_exec_time(0.1);  // lots of slack
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  const auto starts = vm.starts(f.alg.find("sense"));
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_NEAR(starts[0], 0.00, 1e-12);
  EXPECT_NEAR(starts[1], 0.01, 1e-12);
  EXPECT_NEAR(starts[2], 0.02, 1e-12);
}

TEST(ExecutiveVm, FreeRunningWithoutPeriodPipelines) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 3;
  opts.period = 0.0;  // no release gating
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  ASSERT_FALSE(vm.deadlock);
  const auto ends = vm.completions(f.alg.find("act"));
  // Iterations back-to-back: total < 3 periods of the gated case.
  EXPECT_LT(ends.back(), 0.01);
}

TEST(ExecutiveVm, ConditionalBranchesChangeDuration) {
  AlgorithmGraph alg("cond", 0.01);
  aaa::Operation s;
  s.name = "sense";
  s.kind = aaa::OpKind::kSensor;
  s.wcet["cpu"] = 1e-4;
  const aaa::OpId sid = alg.add_operation(std::move(s));
  aaa::Operation mode;
  mode.name = "mode";
  mode.kind = aaa::OpKind::kCompute;
  mode.branches = {aaa::Branch{"fast", {{"cpu", 1e-4}}},
                   aaa::Branch{"slow", {{"cpu", 4e-3}}}};
  const aaa::OpId mid = alg.add_operation(std::move(mode));
  alg.add_dependency(sid, mid, 1.0);
  const auto arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
  const Schedule sched = aaa::adequate(alg, arch);
  const GeneratedCode code = aaa::generate_executives(alg, arch, sched);

  VmOptions opts;
  opts.iterations = 200;
  opts.period = 0.01;
  opts.branch_chooser = uniform_branch_chooser();
  opts.seed = 3;
  const VmResult vm = run_executives(alg, arch, sched, code, opts);
  ASSERT_FALSE(vm.deadlock);
  // Some iterations fast, some slow: completion latitude varies.
  double min_d = 1e9, max_d = -1e9;
  for (const OpInstance& oi : vm.ops) {
    if (oi.op != mid) continue;
    min_d = std::min(min_d, oi.end - oi.start);
    max_d = std::max(max_d, oi.end - oi.start);
  }
  EXPECT_NEAR(min_d, 1e-4, 1e-12);
  EXPECT_NEAR(max_d, 4e-3, 1e-12);
}

TEST(ExecutiveVm, CompletionsAndStartsFilterByOp) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 2;
  opts.period = 0.01;
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  EXPECT_EQ(vm.completions(f.alg.find("ctrl")).size(), 2u);
  EXPECT_EQ(vm.starts(f.alg.find("sense")).size(), 2u);
  EXPECT_TRUE(vm.completions(99).empty());
}

TEST(ExecutiveVm, DetectsDeadlockInCorruptedCode) {
  DistributedChain f;
  GeneratedCode bad = f.code;
  // Remove the send from P0's program: P1 waits forever for y.
  for (auto& prog : bad.programs) {
    std::erase_if(prog.instrs, [](const aaa::Instr& ins) {
      return ins.kind == aaa::InstrKind::kSend;
    });
  }
  VmOptions opts;
  opts.iterations = 1;
  opts.period = 0.01;
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, bad, opts);
  EXPECT_TRUE(vm.deadlock);
  EXPECT_FALSE(vm.deadlock_info.empty());
}

/// A pipeline `layers` deep and three operations wide on three processors
/// sharing one CAN bus: every operation reads two operations of the layer
/// before, which ran on another processor, so the bus carries six frames per
/// layer while only a handful are ever pending at once.
struct CanPipeline {
  AlgorithmGraph alg{"can_pipeline", 1.0};
  ArchitectureGraph arch{ArchitectureGraph::bus_architecture(3, 1e5, 0.0)};
  Schedule sched{0, 0};
  GeneratedCode code;

  explicit CanPipeline(std::size_t layers) {
    constexpr std::size_t kWidth = 3;
    arch.set_can(0, 1e-4);
    std::vector<aaa::OpId> prev;
    for (std::size_t l = 0; l < layers; ++l) {
      const aaa::OpKind kind = l == 0 ? aaa::OpKind::kSensor
                               : l + 1 == layers ? aaa::OpKind::kActuator
                                                 : aaa::OpKind::kCompute;
      std::vector<aaa::OpId> cur;
      for (std::size_t i = 0; i < kWidth; ++i) {
        std::string name = "o";
        name += std::to_string(l * kWidth + i);
        cur.push_back(alg.add_simple(name, kind, 1e-4 * (1 + (l + i) % 4),
                                     "P" + std::to_string(l % 3)));
        if (l == 0) continue;
        alg.add_dependency(prev[i], cur.back(), 8.0);
        alg.add_dependency(prev[(i + 1) % kWidth], cur.back(), 4.0);
      }
      prev = std::move(cur);
    }
    sched = aaa::adequate(alg, arch);
    code = aaa::generate_executives(alg, arch, sched);
  }

  /// Frames examined per committed CAN frame over a WCET run and a
  /// random-times run.
  double frames_examined_per_commit() const {
    obs::MetricsRegistry metrics;
    VmOptions opts;
    opts.iterations = 10;
    opts.period = sched.makespan();
    opts.metrics = &metrics;
    EXPECT_FALSE(run_executives(alg, arch, sched, code, opts).deadlock);
    opts.exec_time = uniform_fraction_exec_time(0.3);
    EXPECT_FALSE(run_executives(alg, arch, sched, code, opts).deadlock);
    return static_cast<double>(
               metrics.counter("exec.can_frames_examined").value()) /
           static_cast<double>(metrics.counter("exec.comms_executed").value());
  }
};

/// Deterministic complexity guard for CAN arbitration: the frames an
/// arbitration round looks at are the pending frames whose signal is known,
/// not every frame on the bus, so the per-commit average stays flat when
/// the bus carries four times as many frames. Counters, not time: the
/// assertion cannot flake.
TEST(ExecutiveVm, CanArbitrationCostDoesNotGrowWithFramesOnTheBus) {
  const CanPipeline small(9);   // 48 frames per iteration
  const CanPipeline large(34);  // 198 frames per iteration
  ASSERT_EQ(small.sched.comms().size(), 48u);
  ASSERT_EQ(large.sched.comms().size(), 198u);
  const double per_commit_small = small.frames_examined_per_commit();
  const double per_commit_large = large.frames_examined_per_commit();
  EXPECT_GT(per_commit_small, 0.0);
  EXPECT_LT(per_commit_large, 1.25 * per_commit_small + 1.0)
      << "small " << per_commit_small << ", large " << per_commit_large;
  // A rescan of the bus would examine at least all 198 frames per commit.
  EXPECT_LT(per_commit_large, 20.0);
}

}  // namespace
}  // namespace ecsim::exec
