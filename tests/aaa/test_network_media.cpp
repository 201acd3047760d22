// Network medium kinds (CAN priority arbitration, TDMA owner slots,
// background-traffic contention): the Medium model's timing rules, their
// validation, and how the adequation charges them.
#include <gtest/gtest.h>

#include <utility>

#include "aaa/adequation.hpp"

namespace ecsim::aaa {
namespace {

TEST(CanMedium, EarliestStartIsImmediate) {
  // CAN has no slot grid: a frame may start the moment the bus is free.
  // The worst-case blocking is the separate access charge, blocking().
  Medium m{"bus", 1e4, 0.0, Arbitration::kCanPriority};
  m.can_blocking = 2e-3;
  EXPECT_DOUBLE_EQ(m.earliest_start(0.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.earliest_start(0.00037, /*priority=*/0), 0.00037);
  EXPECT_DOUBLE_EQ(m.earliest_start(0.00037, /*priority=*/7), 0.00037);
}

TEST(CanMedium, SetCanValidation) {
  auto arch = ArchitectureGraph::bus_architecture(2, 1e4);
  EXPECT_THROW(arch.set_can(5, 1e-3), std::out_of_range);
  EXPECT_THROW(arch.set_can(0, -1e-3), std::invalid_argument);
  arch.set_can(0, 2e-3);
  EXPECT_EQ(arch.medium(0).arbitration, Arbitration::kCanPriority);
  EXPECT_DOUBLE_EQ(arch.medium(0).can_blocking, 2e-3);
}

TEST(BackgroundLoad, StretchesTransferTime) {
  auto arch = ArchitectureGraph::bus_architecture(2, 1e4, 1e-4);
  const double clean = arch.medium(0).transfer_time(8.0);
  arch.set_background_load(0, 0.5);
  const Medium& m = arch.medium(0);
  EXPECT_DOUBLE_EQ(m.effective_bandwidth(), 5e3);
  // Latency is propagation, not bandwidth: only the size term stretches.
  EXPECT_DOUBLE_EQ(m.transfer_time(8.0), 1e-4 + 8.0 / 5e3);
  EXPECT_GT(m.transfer_time(8.0), clean);
}

TEST(BackgroundLoad, Validation) {
  auto arch = ArchitectureGraph::bus_architecture(2, 1e4);
  EXPECT_THROW(arch.set_background_load(5, 0.1), std::out_of_range);
  EXPECT_THROW(arch.set_background_load(0, -0.1), std::invalid_argument);
  EXPECT_THROW(arch.set_background_load(0, 1.0), std::invalid_argument);
  arch.set_background_load(0, 0.0);  // explicit zero is a no-op, not an error
  EXPECT_DOUBLE_EQ(arch.medium(0).effective_bandwidth(), 1e4);
}

TEST(TdmaOwnerSlots, EarliestStartHitsOwnerInstants) {
  // 2 owner slots of 5e-4 s: owner 0 may start at k*1e-3, owner 1 at
  // k*1e-3 + 5e-4.
  Medium m{"bus", 1e5, 0.0, Arbitration::kTdma, 5e-4};
  m.tdma_slots = 2;
  // Release exactly AT an owner instant starts immediately (boundary hit).
  EXPECT_DOUBLE_EQ(m.earliest_start(0.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.earliest_start(1e-3, 0), 1e-3);
  EXPECT_DOUBLE_EQ(m.earliest_start(5e-4, 1), 5e-4);
  EXPECT_DOUBLE_EQ(m.earliest_start(1.5e-3, 1), 1.5e-3);
  // Release just past the instant waits a full round.
  EXPECT_DOUBLE_EQ(m.earliest_start(1e-3 + 1e-9, 0), 2e-3);
  EXPECT_DOUBLE_EQ(m.earliest_start(5e-4 + 1e-9, 1), 1.5e-3);
  // Transfers start only at the owner instant itself: a release mid-slot
  // (even inside the owner's own slot) waits for the next round, and a
  // release in a foreign slot snaps forward to the owner's next instant.
  EXPECT_DOUBLE_EQ(m.earliest_start(2e-4, 0), 1e-3);
  EXPECT_DOUBLE_EQ(m.earliest_start(2e-4, 1), 5e-4);
  // Release exactly at the owner slot's END (the next instant belongs to
  // the other owner) also waits for the next round.
  EXPECT_DOUBLE_EQ(m.earliest_start(5e-4, 0), 1e-3);
  // Owner is priority modulo the slot count.
  EXPECT_DOUBLE_EQ(m.earliest_start(2e-4, 3), m.earliest_start(2e-4, 1));
}

TEST(TdmaOwnerSlots, SingleSlotEqualsClassicGrid) {
  // One slot per round: every priority may start on any boundary k * slot.
  Medium m{"bus", 1e5, 0.0, Arbitration::kTdma, 1e-3};
  const std::pair<double, double> ready_start[] = {
      {0.0, 0.0}, {4e-4, 1e-3}, {1e-3, 1e-3}, {1.00001e-3, 2e-3},
      {2.7e-3, 3e-3}};
  for (const auto& [ready, start] : ready_start) {
    EXPECT_DOUBLE_EQ(m.earliest_start(ready, 0), start);
    EXPECT_DOUBLE_EQ(m.earliest_start(ready, 5), start);
  }
}

TEST(MediumBlocking, IsTheCanAccessChargeOnly) {
  auto arch = ArchitectureGraph::bus_architecture(2, 1e5, 0.0);
  EXPECT_DOUBLE_EQ(arch.medium(0).blocking(), 0.0);
  arch.set_tdma(0, 5e-4, 2);
  EXPECT_DOUBLE_EQ(arch.medium(0).blocking(), 0.0);
  arch.set_can(0, 2e-3);
  EXPECT_DOUBLE_EQ(arch.medium(0).blocking(), 2e-3);
  // A blocking time left on a medium that is no longer CAN is not charged.
  Medium m = arch.medium(0);
  m.arbitration = Arbitration::kImmediate;
  EXPECT_DOUBLE_EQ(m.blocking(), 0.0);
}

TEST(TdmaOwnerSlots, SetTdmaValidatesSlotCount) {
  auto arch = ArchitectureGraph::bus_architecture(2, 1e4);
  EXPECT_THROW(arch.set_tdma(0, 1e-3, 0), std::invalid_argument);
  arch.set_tdma(0, 1e-3, 4);
  EXPECT_EQ(arch.medium(0).tdma_slots, 4u);
}

TEST(DepPriority, DefaultsToDeclarationOrder) {
  AlgorithmGraph alg("prio", 0.01);
  const OpId a = alg.add_simple("a", OpKind::kSensor, 1e-4, "P0");
  const OpId b = alg.add_simple("b", OpKind::kCompute, 1e-4, "P1");
  const OpId c = alg.add_simple("c", OpKind::kActuator, 1e-4, "P0");
  alg.add_dependency(a, b, 8.0);            // default: dep index 0
  alg.add_dependency(b, c, 8.0, /*prio=*/0);  // explicit CAN identifier
  EXPECT_EQ(alg.dep_priority(0), 0u);
  EXPECT_EQ(alg.dep_priority(1), 0u);  // explicit wins over index 1
}

/// Two transfers across a CAN bus: the adequation must charge the
/// worst-case non-preemptive blocking once per frame, lengthening the
/// makespan by exactly 2 * blocking vs the immediate bus.
TEST(CanAdequation, ChargesBlockingPerFrame) {
  const auto build = [](double blocking) {
    AlgorithmGraph alg("chain", 0.05);
    const OpId s = alg.add_simple("sense", OpKind::kSensor, 1e-4, "P0");
    const OpId c = alg.add_simple("ctrl", OpKind::kCompute, 5e-4, "P1");
    const OpId a = alg.add_simple("act", OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
    auto arch = ArchitectureGraph::bus_architecture(2, 1e5, 1e-5);
    if (blocking >= 0.0) arch.set_can(0, blocking);
    const Schedule sched = adequate(alg, arch);
    sched.validate(alg, arch);
    return sched.makespan();
  };
  const double immediate = build(-1.0);
  EXPECT_NEAR(build(2e-3), immediate + 2 * 2e-3, 1e-12);
  EXPECT_NEAR(build(0.0), immediate, 1e-12);
}

}  // namespace
}  // namespace ecsim::aaa
