// Block: the unit of behaviour in the hybrid simulator, modeled on Scicos
// basic blocks. A block has regular (data) input/output ports, event input/
// output ports, an optional continuous state, and an optional discrete state
// held in its own members. Discrete blocks execute when they receive an
// activation event on an event input (paper §3.1); continuous blocks expose
// derivatives that the simulator integrates between events.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "mathlib/rng.hpp"
#include "sim/port.hpp"
#include "sim/trace.hpp"

namespace ecsim::sim {

class Context;

/// Backend a Context delegates to. sim::BlockHost (sim/simulator.hpp)
/// implements it once per trial — for the scalar Simulator and for every lane
/// of the batched SIMD engine (src/simd/batched_sim.hpp) — which is what lets
/// unchanged Block code run under either driver. The virtual hop replaces
/// what was already an out-of-line cross-TU call per Context operation, so
/// the scalar hot path pays nothing measurable for the indirection.
class ExecHost {
 public:
  virtual ~ExecHost() = default;

 protected:
  friend class Context;
  virtual std::span<const double> ctx_input(std::size_t block,
                                            std::size_t port) const = 0;
  virtual std::span<double> ctx_output(std::size_t block,
                                       std::size_t port) = 0;
  virtual std::span<const double> ctx_state(std::size_t block) const = 0;
  virtual std::span<double> ctx_state_mut(std::size_t block) = 0;
  virtual void ctx_emit(std::size_t block, std::size_t event_out, Time at) = 0;
  virtual void ctx_schedule_self(std::size_t block, std::size_t event_in,
                                 Time at) = 0;
  virtual math::Rng& ctx_rng() = 0;
  virtual Trace& ctx_trace() = 0;
};

/// Execution context handed to a block's computational functions. Resolves
/// data-port reads through the model wiring, exposes the block's continuous
/// state slice, and lets event handlers emit/schedule events.
class Context {
 public:
  Time time() const { return time_; }

  /// Current value of data input `port` (the connected producer's output,
  /// or zeros if unconnected).
  std::span<const double> input(std::size_t port) const;
  /// Scalar convenience for width-1 inputs.
  double in1(std::size_t port) const { return input(port)[0]; }

  /// This block's output buffer for data output `port`.
  std::span<double> output(std::size_t port);
  /// Scalar convenience for width-1 outputs.
  void set_out1(std::size_t port, double v) { output(port)[0] = v; }

  /// Continuous state slice of this block (read).
  std::span<const double> state() const;
  /// Continuous state slice of this block (write; allowed in initialize()
  /// and on_event() only — discrete jumps of the continuous state).
  std::span<double> state_mut();

  /// Emit an event on event output `event_out`, delivered to all connected
  /// event inputs after `delay` (>= 0) time units. Allowed in initialize()
  /// and on_event() only.
  void emit(std::size_t event_out, Time delay = 0.0);

  /// Schedule an activation of this block's own event input `event_in`
  /// after `delay` time units (self-clocking, e.g. periodic sources).
  void schedule_self(std::size_t event_in, Time delay);

  math::Rng& rng();
  Trace& trace();
  std::size_t block_index() const { return block_; }

  /// Built by an ExecHost (Simulator, batched lane host) around one call
  /// into a Block's computational functions. Blocks never construct these.
  Context(ExecHost* host, std::size_t block, Time time, bool in_event)
      : host_(host), block_(block), time_(time), in_event_(in_event) {}

 private:
  ExecHost* host_;
  std::size_t block_;
  Time time_;
  bool in_event_;  // true when events may be emitted (init / on_event)
};

/// Base class for all simulation blocks. Subclasses declare their ports and
/// state sizes in their constructor via the protected add_* functions, then
/// override the computational functions they need.
class Block {
 public:
  explicit Block(std::string name) : name_(std::move(name)) {}
  virtual ~Block() = default;

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  const std::string& name() const { return name_; }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  std::size_t num_event_inputs() const { return event_inputs_; }
  std::size_t num_event_outputs() const { return event_outputs_; }
  std::size_t input_width(std::size_t port) const { return inputs_.at(port).width; }
  std::size_t output_width(std::size_t port) const { return outputs_.at(port).width; }
  std::size_t continuous_state_size() const { return nx_; }

  // --- computational functions (Scicos "jobs") -----------------------------

  /// Called once at the start of a run. Reset discrete state members, write
  /// initial outputs, set the initial continuous state, and schedule any
  /// initial events here.
  virtual void initialize(Context& ctx) { compute_outputs(ctx); }

  /// Refresh data outputs from inputs/state at ctx.time(). Called by the
  /// simulator in feedthrough-topological order whenever signal values are
  /// needed (integration stages, before event dispatch). Must be
  /// side-effect-free apart from writing outputs: no event emission, no
  /// discrete-state mutation.
  virtual void compute_outputs(Context& ctx) { (void)ctx; }

  /// Activation: an event arrived on event input `event_in`. Read inputs,
  /// update discrete state, write outputs, emit events.
  virtual void on_event(Context& ctx, std::size_t event_in) {
    (void)ctx;
    (void)event_in;
  }

  /// Time derivative of the continuous state; `dx` has
  /// continuous_state_size() entries.
  virtual void derivatives(Context& ctx, std::span<double> dx) {
    (void)ctx;
    (void)dx;
  }

  /// True if data output values depend instantaneously on data input `port`
  /// (direct feedthrough). Drives combinational evaluation ordering and
  /// algebraic-loop detection.
  virtual bool input_feedthrough(std::size_t port) const {
    (void)port;
    return false;
  }

  /// IR description (DESIGN.md §3.6): fill `out` with this block's kind tag
  /// and the typed attributes a backend needs to regenerate its behaviour
  /// (blocks::to_model, the native code generator). Structural fields —
  /// ports, event arity, state size, feedthrough, time dependence — are
  /// filled by sim::build_ir from the base-class API; describe() must only
  /// set `kind`, `attrs` and `opaque`. The default marks the block opaque:
  /// it still lays out and simulates, but cannot be regenerated from IR
  /// (blocks parameterized by user closures stay this way).
  virtual void describe(ir::BlockIr& out) const { out.opaque = true; }

  /// True if compute_outputs() reads ctx.time() — i.e. outputs drift as time
  /// advances even with unchanged inputs and state (signal generators such
  /// as Sine/Step/Pulse). Together with input_feedthrough() this drives the
  /// incremental re-evaluation cones: a block that reads the clock without
  /// declaring it here will hold stale outputs between events under the
  /// default incremental refresh (SimOptions::full_refresh restores the
  /// whole-network sweep). Blocks with continuous state are implicitly
  /// treated as time-varying and need not override this.
  virtual bool output_depends_on_time() const { return false; }

  /// How this block's event handling varies across lockstep Monte Carlo
  /// lanes (simd::BatchedSim, DESIGN.md §3.8). A uniform block's on_event
  /// runs ONCE per batch instead of once per lane, so declare the strongest
  /// class that truly holds:
  ///  - kVarying  (default): behaviour may differ between trials — it reads
  ///    the rng, data inputs, or state influenced by either. Always safe.
  ///  - kLockstep: on_event is a deterministic function of the activation
  ///    history and time only (mutable state allowed — e.g. a fixed-duration
  ///    EventDelay's busy window). Valid while every activation reaches all
  ///    live lanes; the batched driver evicts on the first partial-mask
  ///    activation.
  ///  - kPure: on_event is a pure function of (time, event_in) — no mutable
  ///    state at all (Clock, TdmaGate, EventMerge). Valid under any mask.
  /// Contract for both uniform classes: no ctx.rng(), no data-input reads,
  /// no data-output writes, no continuous state, no trace records. The
  /// lane-identity property suite runs every stock block through both the
  /// batched and the scalar engine, so a wrong declaration shows up as a
  /// digest mismatch.
  enum class EventUniformity { kVarying, kLockstep, kPure };
  virtual EventUniformity event_uniformity() const {
    return EventUniformity::kVarying;
  }

 protected:
  std::size_t add_input(std::size_t width = 1) {
    inputs_.push_back(PortSpec{width});
    return inputs_.size() - 1;
  }
  std::size_t add_output(std::size_t width = 1) {
    outputs_.push_back(PortSpec{width});
    return outputs_.size() - 1;
  }
  std::size_t add_event_input() { return event_inputs_++; }
  std::size_t add_event_output() { return event_outputs_++; }
  void set_continuous_state_size(std::size_t nx) { nx_ = nx; }

 private:
  std::string name_;
  std::vector<PortSpec> inputs_;
  std::vector<PortSpec> outputs_;
  std::size_t event_inputs_ = 0;
  std::size_t event_outputs_ = 0;
  std::size_t nx_ = 0;
};

}  // namespace ecsim::sim
