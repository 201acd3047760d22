// The Scicos hybrid-event loop (DESIGN.md §3.1), written once. Both engines
// instantiate it: sim::Simulator with the interpreted dispatch policy
// (Block virtuals over CompiledModel tables, sim/simulator.hpp) and the
// generated native module with the Program dispatch policy (a switch over
// constexpr tables, backend/native_runtime.hpp). Generated code plugs into
// the loop's entry points instead of re-deriving them, so an interpreter run
// and a native run of the same IR are bit-identical by construction.
//
// Semantics:
//  - events pop in the strict (time, seq) order, FIFO among ties;
//  - between event instants the packed continuous state is integrated, and
//    every derivative evaluation first refreshes the dynamic cone (blocks
//    whose outputs drift with time or state); after the step to the next
//    instant the dynamic cone is refreshed once more;
//  - an instant drains the queue's ties pop by pop, then the same-instant
//    lane: zero-delay emissions made while draining are appended to the lane
//    instead of the queue, which is the order their seq numbers would give;
//  - after each dispatch on block b, b's feedthrough cone is refreshed (the
//    whole network under full_refresh). Untraced runs skip empty cones.
//
// Dispatch policy D (the per-trial state lives in D, because block code
// reads and writes it):
//   D::Queue, Agenda<D::Queue> agenda, and the TrialState members;
//   Trace& trace(); total_state(); eval_order(), dynamic_cone(), cone(b),
//   stateful_blocks() as spans of block indices;
//   initialize()                      every block's initialize() at t = 0;
//   refresh(order, t)                 compute_outputs over `order`;
//   on_event(block, event_in, t)      one activation;
//   derivatives(b, t, dx)             b's slice of dx.
// Telemetry sink T: ObsSink<Obs> below, over either engine's instrument
// backend.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mathlib/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/integrator.hpp"
#include "sim/trace.hpp"

namespace ecsim::obs {
class Tracer;
class MetricsRegistry;
}  // namespace ecsim::obs

namespace ecsim::sim {

struct SimOptions {
  /// Simulated horizon: run() executes events and integration from t = 0
  /// until this instant (inclusive of events scheduled exactly at it).
  Time end_time = 1.0;
  /// Continuous-state integration (method, tolerances, step bounds) applied
  /// between event instants; see sim/integrator.hpp.
  IntegratorOptions integrator;
  /// Seed of the run's math::Rng (noise sources and other stochastic
  /// blocks). Identical seeds give bit-identical runs.
  std::uint64_t seed = 1;
  /// Hard cap on dispatched events; exceeding it aborts the run with an
  /// exception (guards against runaway zero-delay loops).
  std::size_t max_events = 20'000'000;
  /// Debug flag: re-evaluate the whole feedthrough network at every refresh
  /// point instead of only the affected cone. The two paths must produce
  /// bit-identical traces; keeping the sweep behind a flag makes that an
  /// assertable property.
  bool full_refresh = false;
  /// Trace capacity hints so long runs don't reallocate mid-trace. Size
  /// them from the horizon and activation periods (e.g. end_time / tick
  /// period x event fan-out). 0 keeps whatever capacity the trace has.
  std::size_t reserve_events = 0;
  std::size_t reserve_signals = 0;
  /// Event-queue capacity hint: upper bound on simultaneously *pending*
  /// events (typically the number of periodic sources x fan-out, not the
  /// total event count). 0 keeps whatever capacity the queue has.
  std::size_t reserve_queue = 0;
  /// Observability (both borrowed, may be null; see DESIGN.md §3.2). The
  /// tracer receives wall-clock spans (compile, integration segments, cone
  /// refreshes) and sim-time instants (event dispatches, incl. S/H
  /// activations); the registry receives counters/gauges/histograms
  /// (sim.events_dispatched, sim.eval_calls, sim.cone_refresh_size,
  /// sim.queue_high_water, sim.eval_calls_per_block). A null pointer costs
  /// one branch on the hot path.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// One trial's pending activations: the time-ordered queue plus the
/// same-instant lane the loop drains after the queue's ties.
template <class Queue>
struct Agenda {
  Queue queue;
  std::vector<ScheduledEvent> lane;
  bool draining = false;  // an instant is being dispatched
  Time now = 0.0;

  void schedule(Time at, std::size_t block, std::size_t event_in) {
    if (draining && at == now) {
      lane.push_back(ScheduledEvent{at, 0, block, event_in});
    } else {
      queue.push(at, block, event_in);
    }
  }
};

/// The values one trial's blocks read and write, apart from their own
/// members: output arena, continuous state, RNG, integrator scratch.
struct TrialState {
  std::vector<double> arena;
  std::vector<double> x;             // committed continuous state
  const double* active_x = nullptr;  // state viewed by blocks right now
  bool in_integration = false;
  math::Rng rng{1};
  IntegratorWorkspace iws;

  /// Per-run reset: same seed, same realization.
  void reset(std::uint64_t seed, std::size_t total_state) {
    rng = math::Rng(seed);
    x.assign(total_state, 0.0);
    active_x = x.data();
    in_integration = false;
    iws.resize(total_state);
    std::fill(arena.begin(), arena.end(), 0.0);
  }
};

/// dx = f(t, x): refresh `order` (the dynamic cone) against state x, then
/// collect every stateful block's derivative.
template <class D>
void evaluate_derivatives(D& d, Time t, const std::vector<double>& x,
                          std::vector<double>& dx,
                          std::span<const std::size_t> order) {
  d.active_x = x.data();
  d.refresh(order, t);
  std::fill(dx.begin(), dx.end(), 0.0);
  for (std::size_t b : d.stateful_blocks()) d.derivatives(b, t, dx);
}

/// The hybrid loop's telemetry sink: wall-clock spans (run, integration
/// segments, cone refreshes), sim-time event instants and the sim.*
/// instruments, reported through an instrument backend `Obs` — direct
/// obs::Tracer / obs::MetricsRegistry pointers (sim::DirectObs) or the ABI
/// v2 callback table (backend::rt::TableObs). Names, tracks and instruments
/// resolve once, in bind(), in the same order for both backends, so an
/// instrumented interpreter run and an instrumented native run produce the
/// same records and values. Absent instruments cost one branch per hook.
template <class Obs>
class ObsSink {
 public:
  template <class Names>
  void bind(const Obs& obs, const Names& block_names) {
#ifndef ECSIM_OBS_DISABLED
    obs_ = obs;
    if (obs_.tracer != nullptr) {
      trk_runtime_ = obs_.track("runtime/sim", /*sim_domain=*/false);
      trk_events_ = obs_.track("sim/events", /*sim_domain=*/true);
      n_run_ = obs_.intern("sim.run");
      n_integrate_ = obs_.intern("sim.integrate");
      n_cone_ = obs_.intern("sim.cone_refresh");
      a_cone_size_ = obs_.intern("cone_size");
      a_port_ = obs_.intern("event_in");
      block_names_.reserve(std::size(block_names));
      for (const auto& name : block_names) {
        block_names_.push_back(obs_.intern(name));
      }
    }
    if (obs_.metrics != nullptr) {
      events_ = obs_.counter("sim.events_dispatched");
      evals_ = obs_.counter("sim.eval_calls");
      queue_hwm_ = obs_.gauge("sim.queue_high_water");
      cone_sizes_ = obs_.histogram("sim.cone_refresh_size");
      evals_per_block_ = obs_.histogram("sim.eval_calls_per_block");
      per_block_evals_.assign(std::size(block_names), 0);
    }
#else
    (void)obs;
    (void)block_names;
#endif
  }

  /// Latched per run, so enable toggles take effect at the next run().
  void begin_run() { tracing_ = obs_.tracer != nullptr && obs_.enabled(); }
  /// Distribution of eval calls across blocks for the run (hot blocks sit in
  /// the top buckets); per-run counts then reset.
  void end_run() {
    if (evals_per_block_ == nullptr) return;
    for (std::uint64_t& n : per_block_evals_) {
      if (n > 0) obs_.observe(evals_per_block_, static_cast<double>(n));
      n = 0;
    }
  }
  bool tracing() const { return tracing_; }
  double clock() const { return tracing_ ? obs_.now() : 0.0; }

  void run_span(double t0) const { span(n_run_, t0, Obs::kNoArg, 0.0); }
  void integrate_span(double t0) const {
    span(n_integrate_, t0, Obs::kNoArg, 0.0);
  }
  void cone_span(double t0, std::size_t cone_size) const {
    span(n_cone_, t0, a_cone_size_, static_cast<double>(cone_size));
  }
  void event(const ScheduledEvent& e) {
    if (tracing_) {
      // Sim-domain timestamp in microseconds (obs::sim_us).
      obs_.instant(block_names_[e.block], trk_events_, e.time * 1e6, a_port_,
                   static_cast<double>(e.event_in));
    }
    if (events_ != nullptr) obs_.add(events_, 1);
  }
  void queue_depth(std::size_t n) {
    if (queue_hwm_ != nullptr) obs_.max(queue_hwm_, n);
  }
  void cone_size(std::size_t n) {
    if (cone_sizes_ != nullptr) {
      obs_.observe(cone_sizes_, static_cast<double>(n));
    }
  }
  void evals(std::span<const std::size_t> order) {
    if (evals_ == nullptr) return;
    obs_.add(evals_, order.size());
    for (std::size_t b : order) ++per_block_evals_[b];
  }

 private:
  void span(std::uint32_t name, double t0, std::uint32_t arg_name,
            double arg) const {
    if (tracing_) obs_.span(name, trk_runtime_, t0, obs_.now(), arg_name, arg);
  }

  Obs obs_;
  bool tracing_ = false;
  std::uint32_t trk_runtime_ = 0, trk_events_ = 0;
  std::uint32_t n_run_ = 0, n_integrate_ = 0, n_cone_ = 0;
  std::uint32_t a_cone_size_ = 0, a_port_ = 0;
  std::vector<std::uint32_t> block_names_;
  typename Obs::Counter events_ = nullptr, evals_ = nullptr;
  typename Obs::Gauge queue_hwm_ = nullptr;
  typename Obs::Histogram cone_sizes_ = nullptr, evals_per_block_ = nullptr;
  std::vector<std::uint64_t> per_block_evals_;
};

template <class Dispatch, class Telemetry>
class HybridLoop {
 public:
  template <class... Args>
  explicit HybridLoop(Args&&... args) : d_(std::forward<Args>(args)...) {}

  Dispatch& dispatch() { return d_; }
  const Dispatch& dispatch() const { return d_; }
  Telemetry& telemetry() { return tel_; }
  /// Current simulation time: end_time after a completed run().
  Time time() const { return d_.agenda.now; }
  std::size_t events_dispatched() const { return events_dispatched_; }

  /// Run from t = 0 to o.end_time; every call restarts from a clean state.
  void run(const SimOptions& o) {
    tel_.begin_run();
    // Closes on scope exit, after the per-block eval flush.
    struct RunSpan {
      Telemetry& tel;
      double t0;
      ~RunSpan() { tel.run_span(t0); }
    } run_span{tel_, tel_.clock()};

    Agenda<typename Dispatch::Queue>& ag = d_.agenda;
    d_.reset(o.seed, d_.total_state());
    d_.trace().clear();
    d_.trace().reserve(o.reserve_events, o.reserve_signals);
    ag.queue.clear();
    if (o.reserve_queue > 0) ag.queue.reserve(o.reserve_queue);
    ag.lane.clear();
    ag.draining = false;
    ag.now = 0.0;
    full_refresh_ = o.full_refresh;
    max_events_ = o.max_events;
    events_dispatched_ = 0;

    // Blocks initialize (writing state/outputs, scheduling events), then one
    // full sweep makes every output consistent; from here on only the blocks
    // whose value sources changed are refreshed.
    d_.initialize();
    refresh(d_.eval_order(), 0.0);

    while (true) {
      Time t_next = o.end_time;
      const bool have_event =
          !ag.queue.empty() && ag.queue.next_time() <= o.end_time;
      if (have_event) t_next = ag.queue.next_time();
      if (t_next > ag.now) {
        if (d_.total_state() > 0) {
          const double t0 = tel_.clock();
          d_.in_integration = true;
          integrate(
              o.integrator,
              [this](Time t, const std::vector<double>& x,
                     std::vector<double>& dx) {
                const std::span<const std::size_t> order = dynamic_order();
                evaluate_derivatives(d_, t, x, dx, order);
                tel_.evals(order);
              },
              ag.now, t_next, d_.x, d_.iws);
          d_.in_integration = false;
          d_.active_x = d_.x.data();
          tel_.integrate_span(t0);
        }
        ag.now = t_next;
        refresh(dynamic_order(), ag.now);
      }
      if (!have_event) break;
      // Pending-event high water, sampled before the drain (lane empty).
      tel_.queue_depth(ag.queue.size());
      ag.draining = true;
      ScheduledEvent e;
      while (ag.queue.pop_next_at(ag.now, e)) dispatch_one(e);
      // Index loop: a dispatch may append to (and reallocate) the lane.
      for (std::size_t i = 0; i < ag.lane.size(); ++i) {
        e = ag.lane[i];
        dispatch_one(e);
      }
      ag.lane.clear();
      ag.draining = false;
    }
    tel_.end_run();
  }

 private:
  std::span<const std::size_t> dynamic_order() const {
    return full_refresh_ ? d_.eval_order() : d_.dynamic_cone();
  }

  void refresh(std::span<const std::size_t> order, Time t) {
    d_.refresh(order, t);
    tel_.evals(order);
  }

  void dispatch_one(const ScheduledEvent& e) {
    d_.trace().record_event(e.time, e.block, e.event_in);
    tel_.event(e);
    d_.on_event(e.block, e.event_in, e.time);
    const std::span<const std::size_t> cone =
        full_refresh_ ? d_.eval_order() : d_.cone(e.block);
    if (tel_.tracing()) {
      const double t0 = tel_.clock();
      refresh(cone, e.time);
      tel_.cone_span(t0, cone.size());
    } else if (!cone.empty()) {
      // Pure event-plumbing blocks have nothing to refresh.
      refresh(cone, e.time);
    }
    tel_.cone_size(cone.size());
    if (++events_dispatched_ > max_events_) {
      throw std::runtime_error(
          "Simulator: max_events exceeded (runaway loop?)");
    }
  }

  Dispatch d_;
  Telemetry tel_;
  bool full_refresh_ = false;
  std::size_t max_events_ = 0;
  std::size_t events_dispatched_ = 0;
};

}  // namespace ecsim::sim
