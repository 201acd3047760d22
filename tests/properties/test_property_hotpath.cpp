// Properties of the hot-path event queue (DESIGN.md §3.4): the flat 4-ary
// EventQueue is a drop-in replacement for a std::priority_queue. Under
// random interleaved push/pop sequences it must yield the exact same
// (time, seq) order — in particular the FIFO tie-break among simultaneous
// events — and draining an instant with pop_next_at must be identical to
// popping one event at a time.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "mathlib/rng.hpp"
#include "sim/event_queue.hpp"

namespace ecsim::sim {
namespace {

/// Reference semantics: the pre-PR-4 implementation, a std::priority_queue
/// over (time, seq) with seq breaking ties first-in-first-out.
class OracleQueue {
 public:
  void push(Time time, std::size_t block, std::size_t event_in) {
    pq_.push(ScheduledEvent{time, next_seq_++, block, event_in});
  }
  bool empty() const { return pq_.empty(); }
  ScheduledEvent pop() {
    ScheduledEvent e = pq_.top();
    pq_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<ScheduledEvent, std::vector<ScheduledEvent>, Later> pq_;
  std::uint64_t next_seq_ = 0;
};

bool same_event(const ScheduledEvent& a, const ScheduledEvent& b) {
  return a.time == b.time && a.seq == b.seq && a.block == b.block &&
         a.event_in == b.event_in;
}

class HotPathProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HotPathProperty, HeapMatchesPriorityQueueOracleUnderRandomTraffic) {
  math::Rng rng(GetParam());
  EventQueue q;
  OracleQueue oracle;
  // Random interleaving, biased toward pushes so the heaps grow deep, with
  // a coarse time grid so simultaneous events (the FIFO-sensitive case)
  // are common.
  for (int op = 0; op < 20'000; ++op) {
    const bool do_push = q.empty() || rng.uniform() < 0.55;
    if (do_push) {
      const Time t = static_cast<Time>(rng.uniform_int(0, 63)) * 0.125;
      const std::size_t block = static_cast<std::size_t>(rng.uniform_int(0, 9));
      const std::size_t port = static_cast<std::size_t>(rng.uniform_int(0, 2));
      q.push(t, block, port);
      oracle.push(t, block, port);
    } else {
      ASSERT_FALSE(oracle.empty());
      const ScheduledEvent got = q.pop();
      const ScheduledEvent want = oracle.pop();
      ASSERT_TRUE(same_event(got, want))
          << "op " << op << ": heap gave (t=" << got.time
          << ", seq=" << got.seq << ", block=" << got.block
          << ") oracle wanted (t=" << want.time << ", seq=" << want.seq
          << ", block=" << want.block << ")";
    }
  }
  // Drain: the tails must agree element for element too.
  while (!oracle.empty()) {
    ASSERT_FALSE(q.empty());
    ASSERT_TRUE(same_event(q.pop(), oracle.pop()));
  }
  EXPECT_TRUE(q.empty());
}

TEST_P(HotPathProperty, BatchedPopMatchesOneAtATimePopping) {
  // Draining each instant with pop_next_at (the hybrid loop's drain) must
  // be observationally identical to popping until the head time changes.
  math::Rng rng(GetParam() * 3 + 1);
  EventQueue drained;
  EventQueue single;
  for (int i = 0; i < 5'000; ++i) {
    const Time t = static_cast<Time>(rng.uniform_int(0, 31)) * 0.25;
    const std::size_t block = static_cast<std::size_t>(rng.uniform_int(0, 7));
    drained.push(t, block, 0);
    single.push(t, block, 0);
  }
  ScheduledEvent e;
  while (!drained.empty()) {
    const Time now = drained.next_time();
    std::size_t count = 0;
    while (drained.pop_next_at(now, e)) {
      ASSERT_FALSE(single.empty());
      ASSERT_TRUE(same_event(e, single.pop()));
      ++count;
    }
    ASSERT_GT(count, 0u);
    if (!single.empty()) {
      EXPECT_NE(single.next_time(), now);
    }
  }
  EXPECT_TRUE(single.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HotPathProperty,
                         ::testing::Values(41u, 42u, 43u, 44u, 45u, 46u));

}  // namespace
}  // namespace ecsim::sim
