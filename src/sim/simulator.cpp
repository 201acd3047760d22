#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace ecsim::sim {

// ---- Context methods (declared in block.hpp) --------------------------------

std::span<const double> Context::input(std::size_t port) const {
  return host_->ctx_input(block_, port);
}

std::span<double> Context::output(std::size_t port) {
  return host_->ctx_output(block_, port);
}

std::span<const double> Context::state() const {
  return host_->ctx_state(block_);
}

std::span<double> Context::state_mut() { return host_->ctx_state_mut(block_); }

void Context::emit(std::size_t event_out, Time delay) {
  if (!in_event_) {
    throw std::logic_error(
        "Context::emit: events may only be emitted from initialize()/on_event()");
  }
  if (delay < 0.0) throw std::invalid_argument("Context::emit: negative delay");
  host_->ctx_emit(block_, event_out, time_ + delay);
}

void Context::schedule_self(std::size_t event_in, Time delay) {
  if (!in_event_) {
    throw std::logic_error(
        "Context::schedule_self: only from initialize()/on_event()");
  }
  if (delay < 0.0) {
    throw std::invalid_argument("Context::schedule_self: negative delay");
  }
  host_->ctx_schedule_self(block_, event_in, time_ + delay);
}

math::Rng& Context::rng() { return host_->ctx_rng(); }

Trace& Context::trace() { return host_->ctx_trace(); }

// ---- BlockHost / InterpDispatch ------------------------------------------

BlockHost::BlockHost(const CompiledModel& compiled, Model& model)
    : compiled_(&compiled), model_(&model) {
  arena.assign(compiled.arena_size(), 0.0);
  trace_.register_block_names(compiled.block_names());
}

void BlockHost::check_event_input(std::size_t block,
                                  std::size_t event_in) const {
  if (event_in >= model_->block(block).num_event_inputs()) {
    throw std::out_of_range("schedule_self: event input out of range");
  }
}

std::span<const double> BlockHost::ctx_input(std::size_t block,
                                             std::size_t port) const {
  const ArenaSlice s = compiled_->input_slice(block, port);
  return std::span<const double>(arena.data() + s.offset, s.width);
}

std::span<double> BlockHost::ctx_output(std::size_t block, std::size_t port) {
  const ArenaSlice s = compiled_->output_slice(block, port);
  return std::span<double>(arena.data() + s.offset, s.width);
}

std::span<const double> BlockHost::ctx_state(std::size_t block) const {
  return std::span<const double>(active_x + compiled_->state_offset(block),
                                 model_->block(block).continuous_state_size());
}

std::span<double> BlockHost::ctx_state_mut(std::size_t block) {
  if (in_integration) {
    throw std::logic_error(
        "Context::state_mut: continuous state is read-only during integration");
  }
  return std::span<double>(x.data() + compiled_->state_offset(block),
                           model_->block(block).continuous_state_size());
}

void InterpDispatch::ctx_emit(std::size_t block, std::size_t event_out,
                              Time at) {
  for (const PortRef& sink : compiled().event_sinks(block, event_out)) {
    agenda.schedule(at, sink.block, sink.port);
  }
}

void InterpDispatch::ctx_schedule_self(std::size_t block,
                                       std::size_t event_in, Time at) {
  check_event_input(block, event_in);
  agenda.schedule(at, block, event_in);
}

// ---- Simulator ---------------------------------------------------------------

namespace {

// Wrap the compile in a wall-clock span (the span closes after the compile
// artifact is constructed, before the delegated constructor runs).
CompiledModel compile_traced(Model& model, const SimOptions& opts) {
  obs::ScopedSpan span(opts.tracer, "sim.compile", obs::Domain::kWall,
                       "runtime/sim");
  return CompiledModel(model);
}

}  // namespace

Simulator::Simulator(Model& model, SimOptions opts)
    : Simulator(compile_traced(model, opts), opts) {}

Simulator::Simulator(CompiledModel compiled, SimOptions opts)
    : compiled_(std::move(compiled)),
      opts_(opts),
      loop_(compiled_, compiled_.model()) {
  loop_.telemetry().bind(DirectObs{opts_.tracer, opts_.metrics},
                         compiled_.block_names());
}

Trace& Simulator::run() {
  loop_.run(opts_);
  return trace();
}

double Simulator::output_value(const Block& b, std::size_t port,
                               std::size_t lane) const {
  const ArenaSlice s =
      compiled_.output_slice(compiled_.model().index_of(b), port);
  if (lane >= s.width) {
    throw std::out_of_range("Simulator::output_value: lane out of range");
  }
  return loop_.dispatch().arena[s.offset + lane];
}

}  // namespace ecsim::sim
