#include "translate/graph_of_delays.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "blocks/event_blocks.hpp"
#include "blocks/sources.hpp"
#include "blocks/synchronization.hpp"

namespace ecsim::translate {

namespace {

/// Duration model for one operation on one processor type: uniform in
/// [bcet_fraction * WCET, WCET], with the WCET taken from a random branch
/// for conditional operations. Pure data (blocks::DurationSpec), so the
/// resulting EventDelay is describable in the IR.
blocks::DurationSpec make_op_duration(const aaa::Operation& op,
                                      const std::string& proc_type,
                                      const GodOptions& opts) {
  const double f = opts.bcet_fraction;
  if (f < 0.0 || f > 1.0) {
    throw std::invalid_argument("GodOptions: bcet_fraction must be in [0,1]");
  }
  if (!op.is_conditional()) {
    const aaa::Time wcet = op.wcet_on(proc_type);
    if (f >= 1.0) return blocks::constant_duration(wcet);
    return blocks::uniform_duration(f * wcet, wcet);
  }
  std::vector<double> branch_wcets;
  branch_wcets.reserve(op.branches.size());
  for (const aaa::Branch& br : op.branches) {
    branch_wcets.push_back(br.wcet.at(proc_type));
  }
  return blocks::branch_duration(std::move(branch_wcets), f,
                                 opts.random_branches);
}

GraphOfDelays build_timetable(sim::Model& model, const aaa::AlgorithmGraph& alg,
                              const aaa::Schedule& sched,
                              const GodOptions& opts) {
  GraphOfDelays god;
  const aaa::Time period = alg.period();
  for (const aaa::ScheduledOp& so : sched.ops()) {
    if (so.end >= period) {
      throw std::runtime_error(
          "graph_of_delays (timetable): operation completes exactly at or "
          "past the period boundary; use event-chain mode");
    }
    auto& clk = model.add<blocks::TimetableClock>(
        opts.prefix + "tt/" + alg.op(so.op).name, period,
        std::vector<sim::Time>{so.end});
    god.op_completion[so.op] = CompletionSource{&clk, clk.event_out()};
  }
  return god;
}

GraphOfDelays build_event_chain(sim::Model& model,
                                const aaa::AlgorithmGraph& alg,
                                const aaa::ArchitectureGraph& arch,
                                const aaa::Schedule& sched,
                                const GodOptions& opts) {
  GraphOfDelays god;
  const aaa::Time period = alg.period();
  auto& clock = model.add<blocks::Clock>(opts.prefix + "clock", period);
  god.clock = &clock;

  // Pass 1: a delay structure per scheduled operation (a single EventDelay,
  // or — for data-bound conditional operations — the paper's Fig. 5 shape:
  // EventSelect routed by the Condition Mapping into per-branch EventDelays
  // joined by an EventMerge), plus one EventDelay per communication hop.
  struct OpNode {
    const sim::Block* activation = nullptr;  // where the start event goes
    std::size_t act_in = 0;
    const sim::Block* completion = nullptr;  // where the done event comes out
    std::size_t comp_out = 0;
  };
  std::map<aaa::OpId, OpNode> op_node;
  std::map<std::size_t, blocks::EventDelay*> comm_delay;  // by comm index
  for (const aaa::ScheduledOp& so : sched.ops()) {
    const aaa::Operation& op = alg.op(so.op);
    const std::string& type = arch.processor(so.proc).type;
    const auto bound = opts.conditions.find(op.name);
    if (bound != opts.conditions.end()) {
      if (!op.is_conditional()) {
        throw std::invalid_argument(
            "graph_of_delays: condition bound to non-conditional op '" +
            op.name + "'");
      }
      if (bound->second.block == nullptr || !bound->second.mapping) {
        throw std::invalid_argument(
            "graph_of_delays: incomplete condition binding for '" + op.name +
            "'");
      }
      const std::size_t n_br = op.branches.size();
      const std::size_t width =
          bound->second.block->output_width(bound->second.port);
      auto& sel = model.add<blocks::EventSelect>(
          opts.prefix + "select/" + op.name, n_br, width,
          bound->second.mapping);
      model.connect(*bound->second.block, bound->second.port, sel, 0);
      auto& merge =
          model.add<blocks::EventMerge>(opts.prefix + "merge/" + op.name, n_br);
      for (std::size_t b = 0; b < n_br; ++b) {
        const aaa::Time wcet = op.branches[b].wcet.at(type);
        const blocks::DurationSpec dur =
            opts.bcet_fraction >= 1.0
                ? blocks::constant_duration(wcet)
                : blocks::uniform_duration(opts.bcet_fraction * wcet, wcet);
        auto& ed = model.add<blocks::EventDelay>(
            opts.prefix + "op/" + op.name + "/" + op.branches[b].name, dur);
        model.connect_event(sel, b, ed, ed.event_in());
        model.connect_event(ed, ed.event_out(), merge, b);
      }
      op_node[so.op] = OpNode{&sel, sel.event_in(), &merge, merge.event_out()};
      god.op_completion[so.op] =
          CompletionSource{&merge, merge.event_out()};
      continue;
    }
    auto& ed = model.add<blocks::EventDelay>(
        opts.prefix + "op/" + op.name, make_op_duration(op, type, opts));
    op_node[so.op] = OpNode{&ed, ed.event_in(), &ed, ed.event_out()};
    god.op_completion[so.op] = CompletionSource{&ed, ed.event_out()};
  }
  // Arrival source per comm: the transfer's EventDelay, or — under fault
  // injection — the EventFault gate spliced after it. dep_arrival and
  // next-hop readiness read from here so a dropped frame never activates
  // anything downstream (loss propagates across hops), while the
  // medium-order chain of pass 2b keeps using the EventDelay itself (the
  // corrupted frame still occupied its slot).
  std::map<std::size_t, std::pair<const sim::Block*, std::size_t>>
      comm_arrival;
  std::shared_ptr<const fault::ArmedFaultPlan> armed;
  if (!opts.fault_plan.empty()) {
    armed = std::make_shared<const fault::ArmedFaultPlan>(opts.fault_plan, alg,
                                                          arch, sched);
  }
  for (std::size_t ci = 0; ci < sched.comms().size(); ++ci) {
    const aaa::ScheduledComm& sc = sched.comms()[ci];
    const aaa::DataDep& dep = alg.dependencies()[sc.dep_index];
    const aaa::Time dur = arch.medium(sc.hop.medium).transfer_time(dep.size);
    const std::string comm_name = alg.op(dep.from).name + ">" +
                                  alg.op(dep.to).name + "#" +
                                  std::to_string(sc.hop_index);
    auto& ed = model.add<blocks::EventDelay>(opts.prefix + "comm/" + comm_name,
                                             blocks::constant_duration(dur));
    comm_delay[ci] = &ed;
    comm_arrival[ci] = {&ed, ed.event_out()};
    if (armed != nullptr) {
      // Activation count k of the gate == iteration index (one transfer per
      // period, order preserved by the busy-queueing EventDelay), so the
      // gate asks the armed plan the exact same question as the executive
      // VM and both engines fault the same iterations. Duplication extends
      // the arrival by extra copies of the transfer time; the medium-
      // occupancy effect on *later* transfers is not propagated here (a
      // known graph-of-delays approximation, exact in the VM). The gate is
      // exported as data (fault::CommGate) so the model stays describable.
      auto& gate = model.add<blocks::EventFault>(
          opts.prefix + "fault/" + comm_name, armed->comm_gate(ci, dur));
      model.connect_event(ed, ed.event_out(), gate, gate.event_in());
      comm_arrival[ci] = {&gate, gate.event_out()};
      god.fault_gates.push_back(&gate);
    }
  }

  // Completion source of the data of dependency `di` as it arrives at the
  // consumer: the final hop's arrival (cross-processor) or the producer's
  // delay (same processor).
  auto dep_arrival =
      [&](std::size_t di) -> std::pair<const sim::Block*, std::size_t> {
    const aaa::DataDep& dep = alg.dependencies()[di];
    const OpNode& prod = op_node.at(dep.from);
    std::pair<const sim::Block*, std::size_t> source{prod.completion,
                                                     prod.comp_out};
    std::size_t best_hop = 0;
    for (std::size_t ci = 0; ci < sched.comms().size(); ++ci) {
      const aaa::ScheduledComm& sc = sched.comms()[ci];
      if (sc.dep_index == di && sc.hop_index >= best_hop) {
        best_hop = sc.hop_index;
        source = comm_arrival.at(ci);
      }
    }
    return source;
  };

  // Pass 2a: wire operation activations — sequencing + synchronization.
  for (aaa::ProcId p = 0; p < sched.num_procs(); ++p) {
    const sim::Block* prev = &clock;  // iteration released by the period tick
    std::size_t prev_out = 0;
    for (std::size_t idx : sched.ops_on(p)) {
      const aaa::ScheduledOp& so = sched.ops()[idx];
      std::vector<std::pair<const sim::Block*, std::size_t>> sources;
      sources.emplace_back(prev, prev_out);
      const aaa::Operation& sched_op = alg.op(so.op);
      if (sched_op.release > 0.0) {
        // Release offset (multirate instance): also wait for the clock tick
        // delayed by the release.
        auto& rel = model.add<blocks::EventDelay>(
            opts.prefix + "release/" + sched_op.name, sched_op.release);
        model.connect_event(clock, 0, rel, rel.event_in());
        sources.emplace_back(&rel, rel.event_out());
      } else if (sched_op.kind == aaa::OpKind::kSensor &&
                 prev != static_cast<const sim::Block*>(&clock)) {
        // A sensor that is not first on its processor must still wait for
        // the period tick (matching the executive's wait_period()), or a
        // faster-than-WCET chain would sample early.
        sources.emplace_back(&clock, 0);
      }
      const auto& deps = alg.dependencies();
      for (std::size_t di = 0; di < deps.size(); ++di) {
        if (deps[di].to != so.op) continue;
        if (sched.of_op(deps[di].from).proc == p) continue;  // same-proc order
        sources.push_back(dep_arrival(di));
      }
      const OpNode& node = op_node.at(so.op);
      if (sources.size() == 1) {
        model.connect_event(*sources[0].first, sources[0].second,
                            *node.activation, node.act_in);
      } else {
        auto& sync = model.add<blocks::Synchronization>(
            opts.prefix + "sync/" + alg.op(so.op).name, sources.size());
        for (std::size_t si = 0; si < sources.size(); ++si) {
          model.connect_event(*sources[si].first, sources[si].second, sync, si);
        }
        model.connect_event(sync, sync.event_out(), *node.activation,
                            node.act_in);
      }
      prev = node.completion;
      prev_out = node.comp_out;
    }
  }

  // Pass 2b: wire communication activations — producer (or previous hop)
  // ready + access charge + medium total order.
  for (aaa::MediumId m = 0; m < sched.num_media(); ++m) {
    const aaa::Medium& medium = arch.medium(m);
    const sim::Block* prev_on_medium = nullptr;
    for (std::size_t ci : sched.comms_on(m)) {
      const aaa::ScheduledComm& sc = sched.comms()[ci];
      const aaa::DataDep& dep = alg.dependencies()[sc.dep_index];
      // Data-ready source: producer op for the first hop, else previous hop.
      const sim::Block* ready = nullptr;
      std::size_t ready_out = 0;
      if (sc.hop_index == 0) {
        const OpNode& prod = op_node.at(dep.from);
        ready = prod.completion;
        ready_out = prod.comp_out;
      } else {
        for (std::size_t cj = 0; cj < sched.comms().size(); ++cj) {
          const aaa::ScheduledComm& prev_hop = sched.comms()[cj];
          if (prev_hop.dep_index == sc.dep_index &&
              prev_hop.hop_index + 1 == sc.hop_index) {
            // Arrival source, not the raw delay: a frame lost on the
            // previous hop must never start this one.
            ready = comm_arrival.at(cj).first;
            ready_out = comm_arrival.at(cj).second;
            break;
          }
        }
        if (ready == nullptr) {
          throw std::logic_error("graph_of_delays: missing previous hop");
        }
      }
      // The medium's access charge (CAN blocking) is a wait on the frame's
      // ready edge, before it queues in the medium order: the rule of the
      // adequation and the VM. WCET replay charges all of it, jitter
      // studies draw it uniformly from [0, blocking].
      if (const aaa::Time blocking = medium.blocking(); blocking > 0.0) {
        auto& wait = model.add<blocks::EventDelay>(
            opts.prefix + "access/comm" + std::to_string(ci),
            opts.bcet_fraction >= 1.0
                ? blocks::constant_duration(blocking)
                : blocks::uniform_duration(0.0, blocking));
        model.connect_event(*ready, ready_out, wait, wait.event_in());
        ready = &wait;
        ready_out = wait.event_out();
      }
      blocks::EventDelay* ed = comm_delay.at(ci);
      // Under TDMA arbitration the transfer start snaps to the slot grid:
      // insert a gate between readiness and the transfer delay.
      const sim::Block* transfer_entry = ed;
      std::size_t transfer_entry_in = ed->event_in();
      if (medium.arbitration == aaa::Arbitration::kTdma) {
        auto& gate = model.add<blocks::TdmaGate>(
            opts.prefix + "tdma/comm" + std::to_string(ci), medium.tdma_slot,
            medium.tdma_slots, alg.dep_priority(sc.dep_index));
        model.connect_event(gate, gate.event_out(), *ed, ed->event_in());
        transfer_entry = &gate;
        transfer_entry_in = gate.event_in();
      }
      if (prev_on_medium == nullptr) {
        model.connect_event(*ready, ready_out, *transfer_entry,
                            transfer_entry_in);
      } else {
        auto& sync = model.add<blocks::Synchronization>(
            opts.prefix + "sync/comm" + std::to_string(ci), 2);
        model.connect_event(*ready, ready_out, sync, 0);
        model.connect_event(*prev_on_medium, 0, sync, 1);
        model.connect_event(sync, sync.event_out(), *transfer_entry,
                            transfer_entry_in);
      }
      prev_on_medium = ed;
    }
  }
  return god;
}

}  // namespace

GraphOfDelays build_graph_of_delays(sim::Model& model,
                                    const aaa::AlgorithmGraph& alg,
                                    const aaa::ArchitectureGraph& arch,
                                    const aaa::Schedule& sched,
                                    const GodOptions& opts) {
  const aaa::Time period = alg.period();
  if (period <= 0.0) {
    throw std::runtime_error(
        "build_graph_of_delays: algorithm graph needs a period");
  }
  if (sched.makespan() > period + 1e-12) {
    throw PeriodOverrun(
        "build_graph_of_delays: schedule makespan exceeds the period (the "
        "real-time constraint is violated; choose a faster architecture or a "
        "longer period)");
  }
  if (opts.mode == GodMode::kTimetable) {
    if (!opts.fault_plan.empty()) {
      throw std::invalid_argument(
          "build_graph_of_delays: fault injection requires event-chain mode "
          "(timetable clocks replay fixed instants)");
    }
    return build_timetable(model, alg, sched, opts);
  }
  return build_event_chain(model, alg, arch, sched, opts);
}

void wire_completion(sim::Model& model, const GraphOfDelays& god, aaa::OpId op,
                     const sim::Block& target, std::size_t event_in) {
  const auto it = god.op_completion.find(op);
  if (it == god.op_completion.end()) {
    throw std::out_of_range("wire_completion: op has no completion source");
  }
  model.connect_event(*it->second.block, it->second.event_out, target,
                      event_in);
}

}  // namespace ecsim::translate
