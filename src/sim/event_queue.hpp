// Time-ordered event queue. Ties at the same instant are broken by insertion
// sequence number, which makes simultaneous-event processing deterministic
// and causally ordered (an event emitted with zero delay during dispatch is
// processed after the events already pending at that instant).
//
// Implementation: an explicit flat 4-ary min-heap over a contiguous vector
// (DESIGN.md §3.4). Compared to a std::priority_queue binary heap, a 4-ary
// layout halves the sift depth, keeps each sift level inside one or two
// cache lines of 32-byte elements, supports reserve() so steady-state pushes
// never reallocate, and clears in O(1). The pop order is a total order on
// (time, seq), so any heap arity yields the identical event sequence —
// property-tested against a std::priority_queue oracle.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/trace.hpp"

namespace ecsim::sim {

struct ScheduledEvent {
  Time time = 0.0;
  std::uint64_t seq = 0;      // tie-break: FIFO among simultaneous events
  std::size_t block = 0;      // destination block index
  std::size_t event_in = 0;   // destination event input port
};

/// Flat 4-ary min-heap on (time, seq) over any event record carrying those
/// fields; push() stamps seq, so ties pop FIFO. EventQueue below and the
/// batched engine's masked queue (simd/batched_sim.hpp) are instances.
/// Defined inline: these run once per dispatched event, and an out-of-line
/// call per event is measurable at the tens of millions of events/s the
/// engine sustains.
template <class Event>
class QuadHeap {
 public:
  void push(Event ev) {
    ev.seq = next_seq_++;
    heap_.push_back(ev);
    sift_up(heap_.size() - 1);
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Earliest pending event; heap must be non-empty.
  const Event& top() const { return heap_.front(); }
  /// Remove and return the earliest event; heap must be non-empty.
  Event pop_top() {
    Event ev = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return ev;
  }
  /// Remove the earliest event into `out` if its time is exactly `t`. The
  /// hybrid loop drains one instant by calling this until it returns false:
  /// ties pop in seq order because (time, seq) is a strict total order.
  bool pop_next_at(Time t, Event& out) {
    if (heap_.empty() || heap_.front().time != t) return false;
    out = pop_top();
    return true;
  }
  /// Drop all pending events and reset the FIFO sequence counter. O(1):
  /// keeps the backing capacity, so a cleared queue re-fills without
  /// allocating (regression-tested on a 1e6-event queue).
  void clear() {
    heap_.clear();
    next_seq_ = 0;
  }
  /// Pre-size the backing vector so steady-state pushes never reallocate.
  void reserve(std::size_t n) { heap_.reserve(n); }
  std::size_t capacity() const { return heap_.capacity(); }

 private:
  /// a should pop after b.
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void sift_up(std::size_t i) {
    Event ev = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!later(heap_[parent], ev)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Event ev = heap_[i];
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      const std::size_t last_child = std::min(first_child + 4, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (later(heap_[best], heap_[c])) best = c;
      }
      if (!later(ev, heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = ev;
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

class EventQueue : public QuadHeap<ScheduledEvent> {
 public:
  void push(Time t, std::size_t block, std::size_t event_in) {
    QuadHeap::push(ScheduledEvent{t, 0, block, event_in});
  }
  /// Earliest pending event time; queue must be non-empty.
  Time next_time() const {
    if (empty()) throw std::logic_error("EventQueue::next_time: empty");
    return top().time;
  }
  /// Remove and return the earliest event (FIFO among ties).
  ScheduledEvent pop() {
    if (empty()) throw std::logic_error("EventQueue::pop: empty");
    return pop_top();
  }
};

}  // namespace ecsim::sim
