#include "aaa/routing.hpp"

#include <gtest/gtest.h>

namespace ecsim::aaa {
namespace {

TEST(RouteTable, SelfRouteIsEmpty) {
  const auto arch = ArchitectureGraph::bus_architecture(2, 10.0);
  const RouteTable rt(arch);
  EXPECT_TRUE(rt.route(0, 0).empty());
  EXPECT_TRUE(rt.connected(0, 0));
}

TEST(RouteTable, SingleBusHop) {
  const auto arch = ArchitectureGraph::bus_architecture(3, 10.0, 0.1);
  const RouteTable rt(arch);
  const Route& r = rt.route(0, 2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].from_proc, 0u);
  EXPECT_EQ(r[0].to_proc, 2u);
  EXPECT_DOUBLE_EQ(arch.medium(r[0].medium).transfer_time(10.0), 0.1 + 1.0);
}

TEST(RouteTable, MultiHopThroughIntermediate) {
  // P0 -link01- P1 -link12- P2: route P0->P2 has two hops via P1.
  ArchitectureGraph arch;
  const ProcId p0 = arch.add_processor("P0");
  const ProcId p1 = arch.add_processor("P1");
  const ProcId p2 = arch.add_processor("P2");
  const MediumId l01 = arch.add_medium("l01", 10.0);
  const MediumId l12 = arch.add_medium("l12", 20.0);
  arch.attach(p0, l01);
  arch.attach(p1, l01);
  arch.attach(p1, l12);
  arch.attach(p2, l12);
  const RouteTable rt(arch);
  const Route& r = rt.route(p0, p2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].medium, l01);
  EXPECT_EQ(r[0].to_proc, p1);
  EXPECT_EQ(r[1].medium, l12);
  EXPECT_EQ(r[1].to_proc, p2);
  EXPECT_DOUBLE_EQ(arch.medium(r[0].medium).transfer_time(20.0) +
                       arch.medium(r[1].medium).transfer_time(20.0),
                   2.0 + 1.0);
}

TEST(RouteTable, PrefersFewerHops) {
  // Triangle: direct bus P0-P2 plus two-hop path; BFS must take the direct.
  ArchitectureGraph arch;
  const ProcId p0 = arch.add_processor("P0");
  const ProcId p1 = arch.add_processor("P1");
  const ProcId p2 = arch.add_processor("P2");
  const MediumId l01 = arch.add_medium("l01", 10.0);
  const MediumId l12 = arch.add_medium("l12", 10.0);
  const MediumId l02 = arch.add_medium("l02", 10.0);
  arch.attach(p0, l01);
  arch.attach(p1, l01);
  arch.attach(p1, l12);
  arch.attach(p2, l12);
  arch.attach(p0, l02);
  arch.attach(p2, l02);
  const RouteTable rt(arch);
  EXPECT_EQ(rt.route(p0, p2).size(), 1u);
  EXPECT_EQ(rt.route(p0, p2)[0].medium, l02);
}

TEST(RouteTable, DisconnectedDetected) {
  ArchitectureGraph arch;
  arch.add_processor("P0");
  arch.add_processor("P1");  // no media at all
  const RouteTable rt(arch);
  EXPECT_FALSE(rt.connected(0, 1));
  EXPECT_THROW(rt.route(0, 1), std::runtime_error);
}

TEST(RouteTable, OutOfRangeThrows) {
  const auto arch = ArchitectureGraph::bus_architecture(2, 1.0);
  const RouteTable rt(arch);
  EXPECT_THROW(rt.route(0, 9), std::out_of_range);
  EXPECT_FALSE(rt.connected(0, 9));
}

}  // namespace
}  // namespace ecsim::aaa
