#include "exec/executive_vm.hpp"

#include <algorithm>
#include <sstream>

#include "exec/channel.hpp"
#include "exec/schedule_ir.hpp"

namespace ecsim::exec {

using aaa::DataDep;
using aaa::ExecutiveProgram;

std::vector<Time> VmResult::completions(OpId op) const {
  std::vector<Time> out;
  for (const OpInstance& oi : ops) {
    if (oi.op == op) out.push_back(oi.end);
  }
  return out;
}

std::vector<Time> VmResult::starts(OpId op) const {
  std::vector<Time> out;
  for (const OpInstance& oi : ops) {
    if (oi.op == op) out.push_back(oi.start);
  }
  return out;
}

ExecTimeFn uniform_fraction_exec_time(double lo_frac) {
  return [lo_frac](const Operation&, Time wcet, math::Rng& rng) {
    return wcet * rng.uniform(lo_frac, 1.0);
  };
}

BranchFn uniform_branch_chooser() {
  return [](const Operation& op, std::size_t, math::Rng& rng) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(op.branches.size()) - 1));
  };
}

BranchFn worst_case_branch_chooser() {
  return [](const Operation& op, std::size_t, math::Rng&) {
    std::size_t worst = 0;
    Time worst_wcet = -1.0;
    for (std::size_t b = 0; b < op.branches.size(); ++b) {
      Time w = 0.0;
      for (const auto& [type, t] : op.branches[b].wcet) w = std::max(w, t);
      if (w > worst_wcet) {
        worst_wcet = w;
        worst = b;
      }
    }
    return worst;
  };
}

namespace {

/// Sequencer cursor over a processor program or a medium communicator.
struct Cursor {
  std::size_t pc = 0;    // instruction / transfer index within one iteration
  std::size_t iter = 0;  // current iteration
  Time t = 0.0;          // local time: everything before this has finished
  // Iteration being abandoned under DegradationPolicy::kSkipCycle (kNone
  // when none): computes are suppressed, sends still fire the stale buffer.
  std::size_t skip_iter = kNone;
  bool done(std::size_t length, std::size_t iterations) const {
    return iter >= iterations || length == 0;
  }
};

/// Arbitration bookkeeping of one CAN medium for its current iteration,
/// maintained incrementally so a commit never rescans the medium's frames.
struct CanBus {
  struct Known {
    std::size_t slot;  // position in the communicator's comm list
    Time signal;       // send signal (hop 0) or predecessor-hop delivery
  };
  std::vector<std::uint8_t> done;  // per slot: transferred this iteration
  std::size_t left = 0;            // slots not transferred yet
  std::vector<Known> known;        // pending frames with a known signal,
                                   // ascending slot order
  // Per signal source (processor pi, or P + medium index): pending frames
  // whose signal is still unknown and which that source could contest.
  std::vector<std::size_t> unknown;
};

}  // namespace

VmResult run_executives(const AlgorithmGraph& alg,
                        const ArchitectureGraph& arch, const Schedule& sched,
                        const GeneratedCode& code, const VmOptions& opts) {
  VmResult result;
  math::Rng rng(opts.seed);
  const std::size_t iters = opts.iterations;

  // Fault injection (DESIGN.md §3.5): arm once against this schedule. An
  // empty plan leaves `armed` inactive and every hook below short-circuits,
  // keeping the fault-free path bit-identical to a plan-less run.
  fault::ArmedFaultPlan armed;
  if (!opts.fault_plan.empty()) {
    armed = fault::ArmedFaultPlan(opts.fault_plan, alg, arch, sched);
  }
  const bool faulting = armed.active();

  // Observability: resolve metric instruments and intern track/name ids up
  // front so the interpreter loop only tests cached pointers.
  obs::Counter* c_ops = nullptr;
  obs::Counter* c_comms = nullptr;
  obs::Counter* c_wcet = nullptr;
  obs::Counter* c_can_examined = nullptr;
  if (opts.metrics != nullptr) {
    c_ops = &opts.metrics->counter("exec.ops_executed");
    c_comms = &opts.metrics->counter("exec.comms_executed");
    c_wcet = &opts.metrics->counter("exec.wcet_lookups");
    c_can_examined = &opts.metrics->counter("exec.can_frames_examined");
  }

  // Compile step: lower the executives to the IR's schedule section. All
  // string-keyed WCET maps are resolved here; the sequencer loop below only
  // reads the flat InstrIr tables (mirrors sim::CompiledModel — compile the
  // structure, interpret only the dynamics).
  const ir::ScheduleIr sir = build_schedule_ir(alg, arch, sched, code, c_wcet);

  obs::ScopedSpan vm_span(opts.tracer, "vm.run", obs::Domain::kWall,
                          "runtime/vm");
  const bool tracing = obs::active(opts.tracer);
  std::vector<std::uint32_t> proc_track, op_name, medium_track, comm_name;
  std::uint32_t a_iter = 0;
  std::uint32_t n_loss = 0, n_delay = 0, n_dup = 0, n_overrun = 0,
                 n_stall = 0, n_stale = 0, n_skip = 0;
  if (tracing) {
    obs::Tracer& t = *opts.tracer;
    a_iter = t.intern("iteration");
    if (faulting) {
      n_loss = t.intern("fault/loss");
      n_delay = t.intern("fault/delay");
      n_dup = t.intern("fault/duplicate");
      n_overrun = t.intern("fault/overrun");
      n_stall = t.intern("fault/node-stall");
      n_stale = t.intern("fault/stale-read");
      n_skip = t.intern("fault/skip-cycle");
    }
    proc_track.resize(code.programs.size());
    for (std::size_t pi = 0; pi < code.programs.size(); ++pi) {
      proc_track[pi] =
          t.track(opts.track_prefix + "proc/" +
                      arch.processor(code.programs[pi].proc).name,
                  obs::Domain::kSim);
    }
    op_name.resize(alg.num_operations());
    for (OpId op = 0; op < alg.num_operations(); ++op) {
      op_name[op] = t.intern(alg.op(op).name);
    }
    medium_track.resize(code.communicators.size());
    for (std::size_t mi = 0; mi < code.communicators.size(); ++mi) {
      medium_track[mi] =
          t.track(opts.track_prefix + "medium/" +
                      arch.medium(code.communicators[mi].medium).name,
                  obs::Domain::kSim);
    }
    comm_name.resize(sched.comms().size());
    for (std::size_t ci = 0; ci < sched.comms().size(); ++ci) {
      const DataDep& dep = alg.dependencies()[sched.comms()[ci].dep_index];
      comm_name[ci] =
          t.intern(alg.op(dep.from).name + "->" + alg.op(dep.to).name);
    }
  }

  std::vector<Channel> channels(sched.comms().size(), Channel(iters));
  std::vector<Cursor> proc_cur(sir.executives.size());
  std::vector<Cursor> medium_cur(sir.communicators.size());

  // The instance counts are known exactly up front (one op instance per
  // kCompute instruction per iteration, one comm instance per scheduled
  // communication per iteration), so reserve once and never grow inside the
  // sequencer loop (DESIGN.md §3.4).
  std::size_t compute_instrs = 0;
  for (const ir::ExecutiveIr& prog : sir.executives) {
    for (const ir::InstrIr& ins : prog.instrs) {
      if (ins.kind == ir::InstrIr::Kind::kCompute) ++compute_instrs;
    }
  }
  result.ops.reserve(compute_instrs * iters);
  result.comms.reserve(sched.comms().size() * iters);

  // Pre-sample execution times and branches would couple RNG draws to the
  // interleaving of the advancing loop; instead draw on first execution of
  // each instance, which happens exactly once.
  auto exec_time = [&](const Operation& op, Time wcet) {
    return opts.exec_time ? opts.exec_time(op, wcet, rng) : wcet;
  };

  // For multi-hop routes the communicators forward autonomously: hop k > 0
  // becomes ready when hop k-1 delivered, without the intermediate
  // processor's sequencer in the path. A (dependency, hop) -> comm table
  // pairs the hops in time linear in the number of comms.
  const std::vector<aaa::ScheduledComm>& comms = sched.comms();
  std::vector<std::size_t> prev_hop(comms.size(), kNone);
  std::vector<std::size_t> next_hop(comms.size(), kNone);
  {
    std::vector<std::vector<std::size_t>> route(alg.dependencies().size());
    for (std::size_t ci = 0; ci < comms.size(); ++ci) {
      std::vector<std::size_t>& hops = route[comms[ci].dep_index];
      const std::size_t h = comms[ci].hop_index;
      if (hops.size() <= h) hops.resize(h + 1, kNone);
      if (hops[h] == kNone) hops[h] = ci;
    }
    for (std::size_t ci = 0; ci < comms.size(); ++ci) {
      const std::size_t h = comms[ci].hop_index;
      if (h == 0) continue;
      const std::size_t prev = route[comms[ci].dep_index][h - 1];
      if (prev == kNone) continue;
      prev_hop[ci] = prev;
      next_hop[prev] = ci;
    }
  }
  // The instant a frame may compete for its medium: its sender's signal on
  // the first hop, the predecessor hop's delivery after that.
  auto signal_of = [&](std::size_t ci, std::size_t iter) {
    return prev_hop[ci] == kNone ? channels[ci].sent(iter)
                                 : channels[prev_hop[ci]].delivered(iter);
  };

  // CAN priority arbitration replaces the static program-order cursor with
  // dynamic per-iteration selection (advance_can), fed by per-medium
  // bookkeeping that the signal hooks below keep current.
  const std::size_t n_procs = sir.executives.size();
  std::vector<std::uint8_t> is_can(sir.communicators.size(), 0);
  bool any_can = false;
  for (std::size_t mi = 0; mi < sir.communicators.size(); ++mi) {
    if (arch.medium(sir.communicators[mi].medium).arbitration ==
        aaa::Arbitration::kCanPriority) {
      is_can[mi] = 1;
      any_can = true;
    }
  }
  // (communicator index, slot within its comm list) of every comm.
  std::vector<std::pair<std::size_t, std::size_t>> comm_slot;
  // Signal source of every comm: the processor owning a hop-0 comm's kSend,
  // or n_procs + the medium of the predecessor hop. kNone when no source
  // can contest: a predecessor pending on the comm's own medium delivers
  // only after a commit there.
  std::vector<std::size_t> source;
  std::vector<CanBus> can(sir.communicators.size());
  // Reset CAN medium `mi` for the iteration its cursor has reached: frames
  // whose signal already appeared are known, the rest are counted against
  // their source.
  auto begin_can_iteration = [&](std::size_t mi) {
    CanBus& bus = can[mi];
    const std::vector<std::size_t>& slots = sir.communicators[mi].comms;
    bus.done.assign(slots.size(), 0);
    bus.left = slots.size();
    bus.known.clear();
    std::fill(bus.unknown.begin(), bus.unknown.end(), 0);
    const std::size_t iter = medium_cur[mi].iter;
    if (iter >= iters) return;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      const std::size_t ci = slots[k];
      if (const auto signal = signal_of(ci, iter)) {
        bus.known.push_back({k, *signal});
      } else if (source[ci] != kNone) {
        ++bus.unknown[source[ci]];
      }
    }
  };
  if (any_can) {
    comm_slot.assign(comms.size(), {kNone, kNone});
    for (std::size_t mi = 0; mi < sir.communicators.size(); ++mi) {
      const std::vector<std::size_t>& slots = sir.communicators[mi].comms;
      for (std::size_t k = 0; k < slots.size(); ++k) {
        comm_slot[slots[k]] = {mi, k};
      }
    }
    source.assign(comms.size(), kNone);
    for (std::size_t pi = 0; pi < n_procs; ++pi) {
      for (const ir::InstrIr& ins : sir.executives[pi].instrs) {
        if (ins.kind == ir::InstrIr::Kind::kSend) source[ins.comm] = pi;
      }
    }
    for (std::size_t ci = 0; ci < comms.size(); ++ci) {
      if (prev_hop[ci] == kNone) continue;
      const std::size_t pmi = comm_slot[prev_hop[ci]].first;
      source[ci] = pmi == comm_slot[ci].first ? kNone : n_procs + pmi;
    }
    for (std::size_t mi = 0; mi < sir.communicators.size(); ++mi) {
      if (is_can[mi] == 0) continue;
      can[mi].unknown.assign(n_procs + sir.communicators.size(), 0);
      begin_can_iteration(mi);
    }
  }
  // Signal hook: comm `ci` of iteration `iter` may now compete. Only the
  // iteration a CAN medium is on is indexed; later ones are picked up by
  // begin_can_iteration when the medium gets there.
  auto frame_ready = [&](std::size_t ci, std::size_t iter, Time signal) {
    if (!any_can) return;
    const auto [mi, k] = comm_slot[ci];
    if (is_can[mi] == 0 || medium_cur[mi].iter != iter) return;
    CanBus& bus = can[mi];
    const auto pos = std::lower_bound(
        bus.known.begin(), bus.known.end(), k,
        [](const CanBus::Known& f, std::size_t slot) { return f.slot < slot; });
    bus.known.insert(pos, {k, signal});
    if (source[ci] != kNone) --bus.unknown[source[ci]];
  };

  auto advance_proc = [&](std::size_t pi) -> bool {
    Cursor& cur = proc_cur[pi];
    const ir::ExecutiveIr& prog = sir.executives[pi];
    if (cur.done(prog.instrs.size(), iters)) return false;
    const ir::InstrIr& ins = prog.instrs[cur.pc];
    switch (ins.kind) {
      case ir::InstrIr::Kind::kCompute: {
        // Skip-cycle degradation: the iteration was abandoned at a lost
        // Recv, so computations are suppressed (no op instance, no time
        // spent) while the pc still advances toward the next iteration.
        if (cur.skip_iter == cur.iter) break;
        const Operation& op = alg.op(ins.op);
        const ir::InstrIr& ci = ins;  // timing fields live on the instruction
        Time start = cur.t;
        // Release gating: sensors wait for the period tick; any op with a
        // release offset (multirate instances) additionally waits for
        // k*period + release.
        if (opts.period > 0.0 && ci.release_gated) {
          start = std::max(start, static_cast<Time>(cur.iter) * opts.period +
                                      ci.release);
        }
        // Node outage: a start falling inside a stop window defers to the
        // restart instant.
        if (faulting && armed.node_has_outages(prog.proc)) {
          const Time released = armed.node_release(prog.proc, start);
          if (released > start) {
            ++result.node_stalls;
            result.injections.push_back(fault::Injection{
                fault::FaultKind::kNodeStop, kNone, kNone, ins.op, cur.iter,
                released});
            if (tracing) {
              opts.tracer->instant(n_stall, proc_track[pi],
                                   obs::sim_us(released), a_iter,
                                   static_cast<double>(cur.iter));
            }
            start = released;
          }
        }
        std::size_t branch = kNone;
        Time wcet;
        if (op.is_conditional()) {
          branch = opts.branch_chooser ? opts.branch_chooser(op, cur.iter, rng)
                                       : 0;
          wcet = ci.branch_wcets.at(branch);
        } else {
          wcet = ci.wcet;
        }
        Time dur = exec_time(op, wcet);
        // Transient overrun: inflate the actual execution time.
        if (faulting) {
          std::size_t fi = kNone;
          const double factor = armed.op_factor(ins.op, cur.iter, &fi);
          if (factor > 1.0) {
            dur *= factor;
            ++result.op_overruns;
            result.injections.push_back(fault::Injection{
                fault::FaultKind::kOpOverrun, fi, kNone, ins.op, cur.iter,
                start});
            if (tracing) {
              opts.tracer->instant(n_overrun, proc_track[pi],
                                   obs::sim_us(start), a_iter,
                                   static_cast<double>(cur.iter));
            }
          }
        }
        result.ops.push_back(
            OpInstance{ins.op, cur.iter, prog.proc, start, start + dur, branch});
        if (tracing) {
          opts.tracer->span(op_name[ins.op], proc_track[pi],
                            obs::sim_us(start), obs::sim_us(start + dur),
                            a_iter, static_cast<double>(cur.iter));
        }
        if (c_ops != nullptr) c_ops->add();
        cur.t = start + dur;
        break;
      }
      case ir::InstrIr::Kind::kSend:
        // Under kSkipCycle the send still fires (with the stale buffer) so
        // downstream processors and communicators never deadlock on it.
        // Only first hops carry a kSend.
        channels[ins.comm].mark_sent(cur.iter, cur.t);
        frame_ready(ins.comm, cur.iter, cur.t);
        break;
      case ir::InstrIr::Kind::kRecv: {
        const auto delivered = channels[ins.comm].delivered(cur.iter);
        if (delivered) {
          cur.t = std::max(cur.t, *delivered);
          break;
        }
        const auto lost = channels[ins.comm].lost(cur.iter);
        if (!lost) return false;  // blocked on message
        // The message was dropped: degrade instead of deadlocking. Either
        // way local time advances to the instant the loss is knowable.
        cur.t = std::max(cur.t, *lost);
        if (opts.fault_policy == fault::DegradationPolicy::kSkipCycle) {
          if (cur.skip_iter != cur.iter) {
            cur.skip_iter = cur.iter;
            ++result.cycles_skipped;
            if (tracing) {
              opts.tracer->instant(n_skip, proc_track[pi], obs::sim_us(cur.t),
                                   a_iter, static_cast<double>(cur.iter));
            }
          }
        } else {
          ++result.stale_reads;  // proceed on the held sample
          if (tracing) {
            opts.tracer->instant(n_stale, proc_track[pi], obs::sim_us(cur.t),
                                 a_iter, static_cast<double>(cur.iter));
          }
        }
        break;
      }
    }
    if (++cur.pc == prog.instrs.size()) {
      cur.pc = 0;
      ++cur.iter;
    }
    return true;
  };

  // Start instant of a frame of priority `prio` whose signal is known at
  // `signal`, on `medium` free from `free`: the medium's next start instant
  // once the medium is free and the frame has paid its access charge (the
  // adequation's rules, so the WCET run reproduces the static schedule).
  // transmit() commits it; advance_can ranks the CAN candidates by it.
  const auto frame_start = [](const aaa::Medium& medium, Time free,
                              Time signal, std::size_t prio) {
    return medium.earliest_start(std::max(free, signal + medium.blocking()),
                                 prio);
  };

  // Occupy medium `mi` with comm `ci`, whose send signal is known at time
  // `signal`: resolves the start instant (frame_start), applies fault
  // effects, and records the transfer. Shared by the static-order path and
  // the CAN arbitration path.
  auto transmit = [&](std::size_t mi, std::size_t ci, Time signal) {
    Cursor& cur = medium_cur[mi];
    const aaa::ScheduledComm& sc = sched.comms()[ci];
    const DataDep& dep = alg.dependencies()[sc.dep_index];
    const aaa::Medium& medium = arch.medium(sir.communicators[mi].medium);
    const Time start = frame_start(medium, cur.t, signal,
                                   alg.dep_priority(sc.dep_index));
    Time end = start + medium.transfer_time(dep.size);
    fault::ArmedFaultPlan::CommEffect eff;
    if (faulting) eff = armed.comm_effect(ci, cur.iter);
    if (eff.lost) {
      // The corrupted frame still occupied its slot; the loss is knowable
      // at the would-be delivery end (e.g. a CRC check failing there).
      channels[ci].mark_lost(cur.iter, end);
      ++result.messages_lost;
      result.injections.push_back(fault::Injection{
          fault::FaultKind::kMessageLoss, eff.loss_fault, ci, kNone, cur.iter,
          end});
      if (tracing) {
        opts.tracer->instant(n_loss, medium_track[mi], obs::sim_us(end),
                             a_iter, static_cast<double>(cur.iter));
      }
    } else {
      // Extra copies occupy the medium (retransmissions); extra delay only
      // postpones the delivery instant (e.g. gateway queueing).
      if (eff.extra_copies > 0) {
        end += static_cast<Time>(eff.extra_copies) *
               medium.transfer_time(dep.size);
        ++result.messages_duplicated;
        result.injections.push_back(fault::Injection{
            fault::FaultKind::kMessageDuplicate, eff.dup_fault, ci, kNone,
            cur.iter, end});
        if (tracing) {
          opts.tracer->instant(n_dup, medium_track[mi], obs::sim_us(end),
                               a_iter, static_cast<double>(cur.iter));
        }
      }
      Time delivery = end;
      if (eff.extra_delay > 0.0) {
        delivery += eff.extra_delay;
        ++result.messages_delayed;
        result.injections.push_back(fault::Injection{
            fault::FaultKind::kMessageDelay, eff.delay_fault, ci, kNone,
            cur.iter, delivery});
        if (tracing) {
          opts.tracer->instant(n_delay, medium_track[mi],
                               obs::sim_us(delivery), a_iter,
                               static_cast<double>(cur.iter));
        }
      }
      channels[ci].mark_delivered(cur.iter, delivery);
      if (next_hop[ci] != kNone) frame_ready(next_hop[ci], cur.iter, delivery);
    }
    result.comms.push_back(CommInstance{ci, cur.iter, start, end});
    if (tracing) {
      opts.tracer->span(comm_name[ci], medium_track[mi], obs::sim_us(start),
                        obs::sim_us(end), a_iter,
                        static_cast<double>(cur.iter));
    }
    if (c_comms != nullptr) c_comms->add();
    cur.t = end;
  };

  constexpr Time kArbEps = 1e-12;

  // One arbitration round on CAN medium `mi`: among the pending frames whose
  // signal is known, the earliest-ready one wins the bus, ties resolved by
  // message priority then comm index (CAN identifier order), scanning the
  // known frames in slot order. The commit is deferred while a frame with an
  // unknown signal could still become ready no later than the chosen start
  // — unless its source provably cannot contest (a sender blocked on a
  // reception that is itself pending on this medium, so its send follows a
  // delivery we have not made yet). That test depends only on the source,
  // so it runs once per source with unknown frames pending. `force` (used
  // only at global quiescence, when no signal can appear without the bus
  // moving) commits the winner regardless. Both paths are driven by the
  // same fixed sweep order, so arbitration outcomes are pure functions of
  // (model, seed, scenario). Cost per call: the known frames plus one test
  // per processor and medium — a fault plan adds one scan of the medium.
  auto advance_can = [&](std::size_t mi, bool force) -> bool {
    Cursor& cur = medium_cur[mi];
    const ir::CommunicatorIr& prog = sir.communicators[mi];
    if (cur.done(prog.comms.size(), iters)) return false;
    CanBus& bus = can[mi];
    auto finish_slot = [&](std::size_t k) {
      bus.done[k] = 1;
      cur.pc = prog.comms.size() - --bus.left;
      if (bus.left == 0) {
        cur.pc = 0;
        ++cur.iter;
        begin_can_iteration(mi);
      }
    };
    // Lost predecessor hops propagate without occupying the bus. Only a
    // fault plan loses frames.
    if (faulting) {
      if (c_can_examined != nullptr) c_can_examined->add(prog.comms.size());
      for (std::size_t k = 0; k < prog.comms.size(); ++k) {
        if (bus.done[k] != 0) continue;
        const std::size_t ci = prog.comms[k];
        if (prev_hop[ci] == kNone) continue;
        if (channels[prev_hop[ci]].delivered(cur.iter)) continue;
        const auto prev_lost = channels[prev_hop[ci]].lost(cur.iter);
        if (!prev_lost) continue;
        channels[ci].mark_lost(cur.iter, *prev_lost);
        if (source[ci] != kNone) --bus.unknown[source[ci]];
        finish_slot(k);
        return true;
      }
    }
    // Arbitration among the frames whose signal is known, ranked by the
    // start transmit() will resolve. The access charge is a constant shift
    // that never reorders candidates.
    if (c_can_examined != nullptr) c_can_examined->add(bus.known.size());
    const aaa::Medium& medium = arch.medium(prog.medium);
    std::size_t best = kNone;
    std::size_t best_pos = kNone;
    std::size_t best_prio = 0;
    Time best_start = 0.0;
    Time best_signal = 0.0;
    for (std::size_t j = 0; j < bus.known.size(); ++j) {
      const std::size_t ci = prog.comms[bus.known[j].slot];
      const Time signal = bus.known[j].signal;
      const std::size_t prio = alg.dep_priority(comms[ci].dep_index);
      const Time start = frame_start(medium, cur.t, signal, prio);
      if (best == kNone || start < best_start - kArbEps ||
          (start <= best_start + kArbEps &&
           (prio < best_prio || (prio == best_prio && ci < best)))) {
        best = ci;
        best_pos = j;
        best_prio = prio;
        best_start = start;
        best_signal = signal;
      }
    }
    if (best == kNone) return false;
    if (!force) {
      for (std::size_t src = 0; src < bus.unknown.size(); ++src) {
        if (bus.unknown[src] == 0) continue;
        Time bound;
        if (src < n_procs) {
          const Cursor& sender = proc_cur[src];
          if (sender.done(sir.executives[src].instrs.size(), iters)) continue;
          const ir::InstrIr& ins = sir.executives[src].instrs[sender.pc];
          if (ins.kind == ir::InstrIr::Kind::kRecv &&
              comm_slot[ins.comm].first == mi && sender.iter == cur.iter &&
              bus.done[comm_slot[ins.comm].second] == 0 &&
              !channels[ins.comm].delivered(sender.iter) &&
              !channels[ins.comm].lost(sender.iter)) {
            continue;  // blocked on a frame this bus has yet to deliver
          }
          bound = sender.t;
        } else {
          bound = medium_cur[src - n_procs].t;
        }
        if (bound <= best_start + kArbEps) return false;  // could contest
      }
    }
    const std::size_t best_slot = bus.known[best_pos].slot;
    bus.known.erase(bus.known.begin() + static_cast<std::ptrdiff_t>(best_pos));
    transmit(mi, best, best_signal);
    finish_slot(best_slot);
    return true;
  };

  auto advance_medium = [&](std::size_t mi) -> bool {
    Cursor& cur = medium_cur[mi];
    const ir::CommunicatorIr& prog = sir.communicators[mi];
    if (is_can[mi] != 0) return advance_can(mi, /*force=*/false);
    if (cur.done(prog.comms.size(), iters)) return false;
    const std::size_t ci = prog.comms[cur.pc];
    auto sent = channels[ci].sent(cur.iter);
    if (prev_hop[ci] != kNone) {
      sent = channels[prev_hop[ci]].delivered(cur.iter);
      if (!sent) {
        // A hop whose predecessor frame was lost never carries anything:
        // propagate the loss downstream without occupying this medium.
        const auto prev_lost = channels[prev_hop[ci]].lost(cur.iter);
        if (!prev_lost) return false;
        channels[ci].mark_lost(cur.iter, *prev_lost);
        if (++cur.pc == prog.comms.size()) {
          cur.pc = 0;
          ++cur.iter;
        }
        return true;
      }
    }
    if (!sent) return false;  // waiting for the sender's signal
    transmit(mi, ci, *sent);
    if (++cur.pc == prog.comms.size()) {
      cur.pc = 0;
      ++cur.iter;
    }
    return true;
  };

  // Run to completion or quiescence.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t pi = 0; pi < code.programs.size(); ++pi) {
      while (advance_proc(pi)) progress = true;
    }
    for (std::size_t mi = 0; mi < code.communicators.size(); ++mi) {
      while (advance_medium(mi)) progress = true;
    }
    if (!progress && any_can) {
      // Global quiescence: every send signal that can appear without the
      // bus moving has appeared, so a deferred arbitration decision is now
      // final — force the winner on the first stalled CAN medium.
      for (std::size_t mi = 0; mi < code.communicators.size(); ++mi) {
        if (is_can[mi] != 0 && advance_can(mi, /*force=*/true)) {
          progress = true;
          break;
        }
      }
    }
  }

  // Anyone not finished is deadlocked (blocked on a message that will never
  // arrive) — with well-formed generated code this cannot happen.
  std::ostringstream blocked;
  for (std::size_t pi = 0; pi < code.programs.size(); ++pi) {
    const Cursor& cur = proc_cur[pi];
    if (!cur.done(code.programs[pi].instrs.size(), iters)) {
      result.deadlock = true;
      blocked << "processor " << arch.processor(code.programs[pi].proc).name
              << " blocked at instr " << cur.pc << " ('"
              << code.programs[pi].instrs[cur.pc].label << "') iteration "
              << cur.iter << "; ";
    }
  }
  for (std::size_t mi = 0; mi < code.communicators.size(); ++mi) {
    const Cursor& cur = medium_cur[mi];
    if (!cur.done(code.communicators[mi].comms.size(), iters)) {
      result.deadlock = true;
      blocked << "medium " << arch.medium(code.communicators[mi].medium).name
              << " blocked at transfer " << cur.pc << " iteration " << cur.iter
              << "; ";
    }
  }
  result.deadlock_info = blocked.str();

  // Deterministic report order regardless of the advancing interleaving.
  std::sort(result.ops.begin(), result.ops.end(),
            [](const OpInstance& a, const OpInstance& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.proc != b.proc) return a.proc < b.proc;
              return a.op < b.op;
            });
  std::sort(result.comms.begin(), result.comms.end(),
            [](const CommInstance& a, const CommInstance& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.comm < b.comm;
            });
  std::sort(result.injections.begin(), result.injections.end(),
            [](const fault::Injection& a, const fault::Injection& b) {
              if (a.iteration != b.iteration) return a.iteration < b.iteration;
              if (a.at != b.at) return a.at < b.at;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.comm != b.comm) return a.comm < b.comm;
              return a.op < b.op;
            });
  return result;
}

}  // namespace ecsim::exec
