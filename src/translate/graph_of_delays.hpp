// SynDEx -> Scicos direction: translate the temporal behaviour of a static
// schedule into a *graph of delays* (paper §3.2) spliced into a simulation
// model. The graph re-creates, with Scicos event-processing blocks, the
// instants at which every operation and communication of the implementation
// completes:
//   - sequencing  (§3.2.1): one EventDelay per operation, chained in the
//     per-processor total order;
//   - conditioning (§3.2.2): conditional operations draw their duration from
//     the taken branch (random branch per activation), producing the jitter
//     the paper describes;
//   - synchronization (§3.2.3): a Synchronization block joins the
//     per-processor chain with incoming inter-processor communications.
// The S/H blocks of the original (ideal) design are then re-wired from the
// activation clock to the completion events of their sensor/actuator
// operations — no change to the control design itself, exactly the workflow
// the paper advocates.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "aaa/schedule.hpp"
#include "blocks/event_blocks.hpp"
#include "fault/fault_plan.hpp"
#include "sim/model.hpp"

namespace ecsim::translate {

/// Binds a conditional operation's branch choice to a signal in the model:
/// the paper's "Condition Mapping" function (§3.2.2) reading a selected
/// controller variable. `mapping` turns the signal value into the branch
/// index that executes.
struct ConditionBinding {
  const sim::Block* block = nullptr;  // data source block
  std::size_t port = 0;               // its data output port
  blocks::ConditionMapping mapping;
};

enum class GodMode {
  /// Replay the WCET schedule instants with timetable clocks (cheap, exact
  /// under the stroboscopic-per-operation assumption).
  kTimetable,
  /// Full event-chain translation (EventDelay/EventSelect/Synchronization);
  /// supports execution-time variation and conditioning jitter.
  kEventChain,
};

struct GodOptions {
  GodMode mode = GodMode::kEventChain;
  /// Actual execution time of each operation instance is drawn uniformly
  /// from [bcet_fraction * WCET, WCET]; 1.0 = deterministic WCET.
  double bcet_fraction = 1.0;
  /// Conditional operations take a uniformly random branch per activation.
  /// When false, branch 0 is always taken. Ignored for operations that have
  /// a ConditionBinding in `conditions`.
  bool random_branches = true;
  /// Data-driven conditioning (§3.2.2, Fig. 5): operation name -> binding.
  /// Bound operations are translated as EventSelect -> per-branch EventDelay
  /// -> EventMerge, with the select's condition input wired to the bound
  /// signal.
  std::map<std::string, ConditionBinding> conditions;
  /// Fault schedule (DESIGN.md §3.5): each communication hop gets an
  /// EventFault gate on its *arrival* path, so lost frames never reach the
  /// consumer's Synchronization — the S/H fires one period later with the
  /// next delivered sample (realistic stale-data degradation), while the
  /// medium-order chain still sees the corrupted frame's occupancy.
  /// Delay/duplication faults defer the arrival. Event-chain mode only:
  /// a non-empty plan in timetable mode throws std::invalid_argument.
  fault::FaultPlan fault_plan;
  /// Name prefix for all generated blocks.
  std::string prefix = "god/";
};

/// Where to pick up the completion event of an operation.
struct CompletionSource {
  const sim::Block* block = nullptr;
  std::size_t event_out = 0;
};

struct GraphOfDelays {
  const sim::Block* clock = nullptr;  // period clock (event-chain mode only)
  std::map<aaa::OpId, CompletionSource> op_completion;
  /// Fault gates inserted for GodOptions::fault_plan (empty when fault-free);
  /// read their drops()/defers() after a run for loss accounting.
  std::vector<const blocks::EventFault*> fault_gates;
};

/// The schedule does not fit within the algorithm period.
struct PeriodOverrun : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Build the graph of delays inside `model`. Throws PeriodOverrun if the
/// schedule does not fit within the algorithm period (the co-simulation
/// presumes the real-time constraint makespan <= Ts holds, as SynDEx
/// guarantees before generating code).
GraphOfDelays build_graph_of_delays(sim::Model& model,
                                    const aaa::AlgorithmGraph& alg,
                                    const aaa::ArchitectureGraph& arch,
                                    const aaa::Schedule& sched,
                                    const GodOptions& opts = {});

/// Wire the completion event of `op` to (target, event_in) — e.g. a
/// SampleHold's activation input.
void wire_completion(sim::Model& model, const GraphOfDelays& god, aaa::OpId op,
                     const sim::Block& target, std::size_t event_in);

}  // namespace ecsim::translate
