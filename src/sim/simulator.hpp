// Simulator: executes a Model with the Scicos hybrid-event loop of
// sim/hybrid_loop.hpp — events dispatched one at a time in (time, seq)
// order, the continuous state integrated between instants, and the
// combinational (direct-feedthrough) network refreshed so zero-delay event
// chains (the paper's graph of delays) see causally consistent values.
//
// The structural work (wiring resolution, arena layout, topological orders,
// re-evaluation cones) lives in CompiledModel. This header supplies the
// loop's interpreted policies: BlockHost/InterpDispatch run Block virtuals
// over the CompiledModel tables, and DirectObs reports to obs::Tracer /
// obs::MetricsRegistry directly. By default re-evaluation is *incremental*:
// after dispatching an event on block b only b's feedthrough cone is
// refreshed, and between events only the dynamic (time/state-dependent)
// cone. SimOptions::full_refresh restores the whole-network sweep as the
// equivalence oracle.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mathlib/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/block.hpp"
#include "sim/compiled_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/hybrid_loop.hpp"
#include "sim/model.hpp"
#include "sim/trace.hpp"

namespace ecsim::sim {

/// The interpreter's block host: one trial's run state laid out by a
/// CompiledModel, and the ExecHost face Block code reaches it through.
/// Emission routing is the subclass's: the scalar loop's agenda
/// (InterpDispatch) or a batched lane's consensus collector (BatchedSim).
class BlockHost : public ExecHost, public TrialState {
 public:
  /// `model` supplies the block objects, `compiled` the layout (compiled
  /// from `model` or from a structurally identical instance). Both borrowed.
  BlockHost(const CompiledModel& compiled, Model& model);

  const CompiledModel& compiled() const { return *compiled_; }
  Model& model() const { return *model_; }
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  std::size_t total_state() const { return compiled_->total_state(); }
  std::span<const std::size_t> eval_order() const {
    return compiled_->eval_order();
  }
  std::span<const std::size_t> dynamic_cone() const {
    return compiled_->dynamic_cone();
  }
  std::span<const std::size_t> cone(std::size_t b) const {
    return compiled_->cone(b);
  }
  std::span<const std::size_t> stateful_blocks() const {
    return compiled_->stateful_blocks();
  }

  void initialize(std::size_t b) {
    Context ctx(this, b, 0.0, /*in_event=*/true);
    model_->block(b).initialize(ctx);
  }
  void refresh(std::span<const std::size_t> order, Time t) {
    for (std::size_t b : order) {
      Context ctx(this, b, t, /*in_event=*/false);
      model_->block(b).compute_outputs(ctx);
    }
  }
  void on_event(std::size_t b, std::size_t event_in, Time t) {
    Context ctx(this, b, t, /*in_event=*/true);
    model_->block(b).on_event(ctx, event_in);
  }
  void derivatives(std::size_t b, Time t, std::vector<double>& dx) {
    Block& blk = model_->block(b);
    Context ctx(this, b, t, /*in_event=*/false);
    blk.derivatives(ctx,
                    std::span<double>(dx.data() + compiled_->state_offset(b),
                                      blk.continuous_state_size()));
  }

 protected:
  /// schedule_self's range check, shared by every emission route.
  void check_event_input(std::size_t block, std::size_t event_in) const;

  std::span<const double> ctx_input(std::size_t block,
                                    std::size_t port) const override;
  std::span<double> ctx_output(std::size_t block, std::size_t port) override;
  std::span<const double> ctx_state(std::size_t block) const override;
  std::span<double> ctx_state_mut(std::size_t block) override;
  math::Rng& ctx_rng() override { return rng; }
  Trace& ctx_trace() override { return trace_; }

 private:
  const CompiledModel* compiled_;
  Model* model_;
  Trace trace_;
};

/// The hybrid loop's interpreted dispatch policy: emissions go to the
/// loop's agenda.
class InterpDispatch final : public BlockHost {
 public:
  using Queue = EventQueue;
  using BlockHost::BlockHost;
  using BlockHost::initialize;

  void initialize() {
    for (std::size_t b = 0; b < compiled().num_blocks(); ++b) initialize(b);
  }

  Agenda<EventQueue> agenda;

 private:
  void ctx_emit(std::size_t block, std::size_t event_out, Time at) override;
  void ctx_schedule_self(std::size_t block, std::size_t event_in,
                         Time at) override;
};

/// ObsSink's instrument backend for the interpreter: direct obs::Tracer /
/// obs::MetricsRegistry pointers (either may be null).
struct DirectObs {
  using Counter = obs::Counter*;
  using Gauge = obs::Gauge*;
  using Histogram = obs::Histogram*;
  static constexpr std::uint32_t kNoArg = obs::kNoArg;

  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  bool enabled() const { return obs::active(tracer); }
  double now() const { return tracer->now_us(); }
  std::uint32_t track(const char* name, bool sim_domain) const {
    return tracer->track(name,
                         sim_domain ? obs::Domain::kSim : obs::Domain::kWall);
  }
  std::uint32_t intern(std::string_view name) const {
    return tracer->intern(name);
  }
  void span(std::uint32_t name, std::uint32_t track, double t0, double t1,
            std::uint32_t arg_name, double arg) const {
    tracer->span(name, track, t0, t1, arg_name, arg);
  }
  void instant(std::uint32_t name, std::uint32_t track, double ts,
               std::uint32_t arg_name, double arg) const {
    tracer->instant(name, track, ts, arg_name, arg);
  }
  Counter counter(const char* name) const { return &metrics->counter(name); }
  Gauge gauge(const char* name) const { return &metrics->gauge(name); }
  Histogram histogram(const char* name) const {
    return &metrics->histogram(name);
  }
  static void add(Counter c, std::uint64_t n) { c->add(n); }
  static void max(Gauge g, std::size_t v) {
    g->max_of(static_cast<double>(v));
  }
  static void observe(Histogram h, double v) { h->observe(v); }
};

class Simulator {
 public:
  /// Compiles the model (see CompiledModel for what that entails; throws on
  /// algebraic loops and width mismatches) and prepares a runner. The model
  /// must outlive the simulator and must not be structurally modified
  /// afterwards.
  explicit Simulator(Model& model, SimOptions opts = {});

  /// Run against an existing compile artifact (moved in). Lets callers
  /// compile once and build any number of runners from copies of the
  /// artifact without re-deriving orders and cones.
  Simulator(CompiledModel compiled, SimOptions opts = {});

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Run from t=0 to opts.end_time. May be called repeatedly; each call
  /// restarts from a clean initial state (blocks re-initialize).
  Trace& run();

  /// The recorded signals/events of the latest run (empty before the first).
  Trace& trace() { return loop_.dispatch().trace(); }
  const Trace& trace() const { return loop_.dispatch().trace(); }
  /// Current simulation time: end_time after a completed run().
  Time current_time() const { return loop_.time(); }
  /// Events dispatched by the latest run (also exported as the
  /// sim.events_dispatched counter when a MetricsRegistry is attached).
  std::size_t events_dispatched() const { return loop_.events_dispatched(); }

  /// Reseed the run Rng for the next run() without rebuilding the simulator
  /// (Monte Carlo drivers reuse one compiled engine across trials).
  void set_seed(std::uint64_t seed) { opts_.seed = seed; }

  /// Final (or current) value of a data output lane — test convenience.
  double output_value(const Block& b, std::size_t port,
                      std::size_t lane = 0) const;

  const Model& model() const { return compiled_.model(); }
  const CompiledModel& compiled() const { return compiled_; }

 private:
  CompiledModel compiled_;
  SimOptions opts_;
  HybridLoop<InterpDispatch, ObsSink<DirectObs>> loop_;
};

}  // namespace ecsim::sim
