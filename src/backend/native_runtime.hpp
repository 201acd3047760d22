// Runtime for generated model modules (DESIGN.md §3.6). A generated .cpp
// defines a `Program` — per-block parameters/state as members, the layout
// tables from ir::LayoutIr as static constexpr arrays, and four specialized
// entry points (init / compute / on_event / derivatives with literal arena
// offsets) — and runs it through rt::run<Program>. This header holds only
// the glue that plugs those entry points into the shared hybrid-event loop
// (sim/hybrid_loop.hpp), the loop the interpreter runs too:
//  - ProgramDispatch<Program>, the loop's dispatch policy and the `e` the
//    generated kernels call back into (arena, state, rng, trace, emit);
//  - TableObs, the loop's instrument backend over the ABI v2 NativeObsTable
//    callback table, so an instrumented native run produces the same
//    sim-domain trace records and metrics values as an instrumented
//    interpreter run (a null table costs one pointer test per hook);
//  - LaneQueue, the event queue specialized for generated modules.
// Everything else order-sensitive is shared source: the same integrator
// stepping the same workspace, the same math::Rng and the same sim::Trace
// recording, unity-compiled into the module from the interpreter's own
// sources. A native run is therefore bit-identical to an interpreter run of
// the same IR (asserted by the interp-vs-native property suite and the
// golden trace-digest table).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "backend/native_abi.hpp"
#include "sim/event_queue.hpp"
#include "sim/hybrid_loop.hpp"
#include "sim/trace.hpp"

namespace ecsim::backend::rt {

/// Event queue specialized for generated modules. emit/schedule_self compute
/// an event's time as `time() + delay` where the evaluation time never
/// decreases across pushes and each call site's delay is (nearly) constant,
/// so the push stream decomposes into a handful of non-decreasing runs. The
/// queue exploits that: it keeps a few FIFO lanes, appends each push to the
/// first lane whose tail is not later than the new event (patience-style run
/// decomposition — every lane stays sorted in (time, seq) by construction,
/// no matter how call-site delays round), and pops the minimum among the
/// lane heads: O(lanes) push and pop with no sifting and no element
/// movement. A push older than every lane tail opens a new lane; past
/// kMaxLanes it falls to a conventional binary-heap side channel, so the
/// structure is exact for arbitrary models, merely fastest for the common
/// monotone case.
///
/// Pop order is bitwise identical to sim::EventQueue's: seq numbers are
/// assigned in the same global push order, each lane head is its lane's
/// (time, seq) minimum by the monotone-append invariant, the heap top is the
/// side channel's minimum, and every pop takes the global minimum across
/// those candidates — the same strict total order on (time, seq) the 4-ary
/// heap pops in. The interp-vs-native property suite asserts this trace
/// identity on every scenario it generates.
class LaneQueue {
 public:
  static constexpr std::size_t kMaxLanes = 16;

  void clear() {
    // Lanes persist across runs (delay classes are structural, buffers keep
    // their capacity); only the contents and the FIFO counter reset.
    for (Lane& l : lanes_) {
      l.buf.clear();
      l.head = 0;
    }
    heap_.clear();
    next_seq_ = 0;
    live_ = 0;
  }
  void reserve(std::size_t n) { heap_.reserve(n); }
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Hot path, forced inline into the generated emit/on_event code: scan the
  /// (few) lanes for one whose tail is not later than the new event — a
  /// drained lane accepts anything — and append. Lane creation and overflow
  /// drop to the cold out-of-line push_slow, keeping the inlined footprint
  /// small enough that the generated switch bodies stay in the I-cache. The
  /// new event carries the largest seq so far, so "tail not later" reduces
  /// to a tail-time comparison and the appended lane stays (time, seq)
  /// sorted.
  [[gnu::always_inline]] inline void push(sim::Time at, std::size_t block,
                                          std::size_t event_in) {
    const sim::ScheduledEvent ev{at, next_seq_++, block, event_in};
    ++live_;
    for (Lane& l : lanes_) {
      if (l.head == l.buf.size()) {
        l.buf.clear();  // window fully drained: restart the ring
        l.head = 0;
      } else if (later(l.buf.back(), ev)) {
        continue;  // appending here would break the lane's sortedness
      }
      l.buf.push_back(ev);
      return;
    }
    push_slow(ev);
  }

  /// Earliest pending event time; queue must be non-empty.
  sim::Time next_time() const {
    const sim::ScheduledEvent* best = nullptr;
    for (const Lane& l : lanes_) {
      if (l.head < l.buf.size()) {
        const sim::ScheduledEvent* h = &l.buf[l.head];
        if (best == nullptr || later(*best, *h)) best = h;
      }
    }
    if (!heap_.empty()) {
      const sim::ScheduledEvent* h = &heap_.front();
      if (best == nullptr || later(*best, *h)) best = h;
    }
    if (best == nullptr) throw std::logic_error("LaneQueue::next_time: empty");
    return best->time;
  }

  /// Remove the earliest pending event if its time is exactly `t`; one
  /// argmin scan, no element movement. Same drain interface and the same
  /// (time, seq) sequence as sim::EventQueue::pop_next_at. An event pushed
  /// mid-drain with a later time fails the exact == t check and waits for
  /// the next instant.
  bool pop_next_at(sim::Time t, sim::ScheduledEvent& out) {
    Lane* best_lane = nullptr;
    const sim::ScheduledEvent* best = nullptr;
    for (Lane& l : lanes_) {
      if (l.head < l.buf.size()) {
        const sim::ScheduledEvent* h = &l.buf[l.head];
        if (best == nullptr || later(*best, *h)) {
          best = h;
          best_lane = &l;
        }
      }
    }
    if (!heap_.empty() &&
        (best == nullptr || later(*best, heap_.front()))) [[unlikely]] {
      if (heap_.front().time != t) return false;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      out = heap_.back();
      heap_.pop_back();
      --live_;
      return true;
    }
    if (best == nullptr || best->time != t) return false;
    out = *best;
    ++best_lane->head;
    --live_;
    return true;
  }

 private:
  struct Lane {
    std::size_t head = 0;  // buf[head..) is the live FIFO window
    std::vector<sim::ScheduledEvent> buf;
  };

  /// a should pop after b.
  static bool later(const sim::ScheduledEvent& a, const sim::ScheduledEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  struct Later {
    bool operator()(const sim::ScheduledEvent& a,
                    const sim::ScheduledEvent& b) const {
      return later(a, b);
    }
  };

  [[gnu::noinline]] void heap_push(const sim::ScheduledEvent& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Cold: the event predates every lane tail — open a new run (or overflow
  /// to the heap past kMaxLanes).
  [[gnu::noinline]] void push_slow(const sim::ScheduledEvent& ev) {
    if (lanes_.size() < kMaxLanes) {
      lanes_.emplace_back();
      lanes_.back().buf.reserve(64);
      lanes_.back().buf.push_back(ev);
      return;
    }
    heap_push(ev);
  }

  std::vector<Lane> lanes_;
  std::vector<sim::ScheduledEvent> heap_;  // Later{} min-heap side channel
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

/// The hybrid loop's dispatch policy for a generated Program, and the
/// services its kernels call (the Context replacements).
template <class Program>
class ProgramDispatch : public sim::TrialState {
 public:
  using Queue = LaneQueue;

  ProgramDispatch() { arena.assign(Program::kArenaSize, 0.0); }

  sim::Agenda<LaneQueue> agenda;

  /// The trace to record into (borrowed; the host's).
  void bind_trace(sim::Trace* t) { trace_ = t; }
  sim::Trace& trace() { return *trace_; }

  static constexpr std::size_t total_state() { return Program::kTotalState; }
  static std::span<const std::size_t> eval_order() {
    return Program::kEvalOrder;
  }
  static std::span<const std::size_t> dynamic_cone() {
    return Program::kDynamicCone;
  }
  static std::span<const std::size_t> stateful_blocks() {
    return Program::kStatefulBlocks;
  }
  static std::span<const std::size_t> cone(std::size_t block) {
    return {Program::kConeBlocks.data() + Program::kConeBase[block],
            Program::kConeBase[block + 1] - Program::kConeBase[block]};
  }

  void initialize() {
    eval_time_ = 0.0;
    prog_.init(*this);
  }
  void refresh(std::span<const std::size_t> order, double t) {
    eval_time_ = t;
    for (std::size_t b : order) prog_.compute(*this, b);
  }
  void on_event(std::size_t block, std::size_t event_in, double t) {
    eval_time_ = t;
    prog_.on_event(*this, block, event_in);
  }
  void derivatives(std::size_t b, double, std::vector<double>& dx) {
    prog_.derivatives(*this, b, dx.data() + Program::kStateOffset[b]);
  }

  // ---- services for generated kernels -------------------------------------

  double time() const { return eval_time_; }

  void emit(std::size_t block, std::size_t event_out, double delay) {
    const double at = eval_time_ + delay;
    const std::size_t slot = Program::kSinkBase[block] + event_out;
    for (std::size_t s = Program::kSinkPtr[slot];
         s < Program::kSinkPtr[slot + 1]; ++s) {
      agenda.schedule(at, Program::kSinkBlock[s], Program::kSinkPort[s]);
    }
  }

  void schedule_self(std::size_t block, std::size_t event_in, double delay) {
    agenda.schedule(eval_time_ + delay, block, event_in);
  }

 private:
  Program prog_;
  sim::Trace* trace_ = nullptr;
  double eval_time_ = 0.0;
};

/// sim::ObsSink's instrument backend for generated modules: the ABI v2
/// callback table, so the module does not link the obs library.
struct TableObs {
  using Counter = void*;
  using Gauge = void*;
  using Histogram = void*;
  static constexpr std::uint32_t kNoArg = kNativeObsNoArg;

  const NativeObsTable* tab = nullptr;
  void* tracer = nullptr;
  void* metrics = nullptr;

  bool enabled() const { return tab->tracer_enabled(tracer) != 0; }
  double now() const { return tab->now_us(tracer); }
  std::uint32_t track(const char* name, bool sim_domain) const {
    return tab->track(tracer, name, sim_domain ? 1 : 0);  // obs::Domain
  }
  std::uint32_t intern(const char* name) const {
    return tab->intern(tracer, name);
  }
  void span(std::uint32_t name, std::uint32_t track, double t0, double t1,
            std::uint32_t arg_name, double arg) const {
    tab->span(tracer, name, track, t0, t1, arg_name, arg);
  }
  void instant(std::uint32_t name, std::uint32_t track, double ts,
               std::uint32_t arg_name, double arg) const {
    tab->instant(tracer, name, track, ts, arg_name, arg);
  }
  Counter counter(const char* name) const {
    return tab->counter(metrics, name);
  }
  Gauge gauge(const char* name) const { return tab->gauge(metrics, name); }
  Histogram histogram(const char* name) const {
    return tab->histogram(metrics, name);
  }
  void add(Counter c, std::uint64_t n) const { tab->counter_add(c, n); }
  void max(Gauge g, std::size_t v) const { tab->gauge_max(g, v); }
  void observe(Histogram h, double v) const { tab->histogram_observe(h, v); }
};

template <class Program>
using Engine =
    sim::HybridLoop<ProgramDispatch<Program>, sim::ObsSink<TableObs>>;

/// Run a generated Program once with the options the host passed across the
/// ABI; fills `trace` exactly as the interpreter would. Returns the number of
/// dispatched events.
template <class Program>
std::size_t run(const NativeRunOptions& n, sim::Trace& trace) {
  sim::SimOptions o;
  o.end_time = n.end_time;
  o.integrator.kind = static_cast<sim::IntegratorKind>(n.integrator_kind);
  o.integrator.max_step = n.max_step;
  o.integrator.rel_tol = n.rel_tol;
  o.integrator.abs_tol = n.abs_tol;
  o.integrator.min_step = n.min_step;
  o.seed = n.seed;
  o.max_events = n.max_events;
  o.full_refresh = n.full_refresh != 0;
  o.reserve_events = n.reserve_events;
  o.reserve_signals = n.reserve_signals;
  o.reserve_queue = n.reserve_queue;
  Engine<Program> engine;
  engine.dispatch().bind_trace(&trace);
  if (n.obs != nullptr) {
    engine.telemetry().bind(TableObs{n.obs, n.obs->tracer, n.obs->metrics},
                            Program::kBlockNames);
  }
  engine.run(o);
  return engine.events_dispatched();
}

}  // namespace ecsim::backend::rt
