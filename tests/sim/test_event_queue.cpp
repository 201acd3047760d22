#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

namespace ecsim::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(2.0, 0, 0);
  q.push(1.0, 1, 0);
  q.push(3.0, 2, 0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.pop().block, 1u);
  EXPECT_EQ(q.pop().block, 0u);
  EXPECT_EQ(q.pop().block, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoAmongSimultaneous) {
  EventQueue q;
  for (std::size_t i = 0; i < 10; ++i) q.push(1.0, i, 0);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(q.pop().block, i);
  }
}

TEST(EventQueue, InterleavedPushPopKeepsFifo) {
  EventQueue q;
  q.push(1.0, 0, 0);
  q.push(1.0, 1, 0);
  EXPECT_EQ(q.pop().block, 0u);
  q.push(1.0, 2, 0);  // arrives later -> processed after block 1
  EXPECT_EQ(q.pop().block, 1u);
  EXPECT_EQ(q.pop().block, 2u);
}

TEST(EventQueue, EmptyAccessThrows) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, ClearResets) {
  EventQueue q;
  q.push(1.0, 0, 0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CarriesEventPort) {
  EventQueue q;
  q.push(1.0, 4, 7);
  const ScheduledEvent e = q.pop();
  EXPECT_EQ(e.block, 4u);
  EXPECT_EQ(e.event_in, 7u);
  EXPECT_DOUBLE_EQ(e.time, 1.0);
}

TEST(EventQueue, PopSimultaneousDrainsExactlyTheTies) {
  // Draining one instant with pop_next_at, as the hybrid loop does.
  EventQueue q;
  q.push(1.0, 0, 0);
  q.push(2.0, 9, 0);
  q.push(1.0, 1, 0);
  q.push(1.0, 2, 0);
  std::vector<ScheduledEvent> out;
  ScheduledEvent e;
  while (q.pop_next_at(1.0, e)) out.push_back(e);
  ASSERT_EQ(out.size(), 3u);
  // FIFO among the ties, exactly like popping one at a time.
  EXPECT_EQ(out[0].block, 0u);
  EXPECT_EQ(out[1].block, 1u);
  EXPECT_EQ(out[2].block, 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  // A later head is left in place; an empty queue just reports false.
  EXPECT_FALSE(q.pop_next_at(1.0, e));
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(q.pop_next_at(2.0, e));
  EXPECT_EQ(e.block, 9u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_next_at(2.0, e));
}

TEST(EventQueue, ReservePreventsSteadyStateReallocation) {
  EventQueue q;
  q.reserve(1000);
  const std::size_t cap = q.capacity();
  ASSERT_GE(cap, 1000u);
  for (std::size_t i = 0; i < 1000; ++i) q.push(static_cast<Time>(i), i, 0);
  EXPECT_EQ(q.capacity(), cap);
  q.clear();
  // clear() keeps the backing storage, so a re-run re-fills in place.
  EXPECT_EQ(q.capacity(), cap);
  for (std::size_t i = 0; i < 1000; ++i) q.push(static_cast<Time>(i), i, 0);
  EXPECT_EQ(q.capacity(), cap);
}

TEST(EventQueue, ClearOnMillionEventQueueIsNearInstant) {
  // Regression: the pre-PR-4 clear() popped elements one at a time through
  // the heap (O(n log n)) — hundreds of milliseconds at this size. The O(1)
  // clear must be orders of magnitude under the generous bound below even on
  // a loaded CI host.
  constexpr std::size_t kN = 1'000'000;
  EventQueue q;
  q.reserve(kN);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;  // cheap deterministic scatter
  for (std::size_t i = 0; i < kN; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    q.push(static_cast<Time>(s % 4096), i % 64, 0);
  }
  ASSERT_EQ(q.size(), kN);
  const auto t0 = std::chrono::steady_clock::now();
  q.clear();
  const auto t1 = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  EXPECT_TRUE(q.empty());
  EXPECT_LT(ms, 50.0) << "clear() took " << ms << " ms on " << kN
                      << " events — O(n log n) regression?";
  // Sequence numbers restart, so FIFO order is reproducible run-to-run.
  q.push(1.0, 42, 0);
  EXPECT_EQ(q.pop().seq, 0u);
}

}  // namespace
}  // namespace ecsim::sim
