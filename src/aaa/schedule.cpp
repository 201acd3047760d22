#include "aaa/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ecsim::aaa {

namespace {
constexpr double kTimeEps = 1e-9;
}

namespace {

/// Insert `index` into `order` keeping it sorted by start time (stable for
/// equal starts). Gap-aware adequation commits out of chronological order,
/// but the per-component lists must reflect execution order.
template <typename Items>
void insert_by_start(std::vector<std::size_t>& order, const Items& items,
                     std::size_t index, double start) {
  auto pos = order.end();
  for (auto it = order.begin(); it != order.end(); ++it) {
    if (items[*it].start > start) {
      pos = it;
      break;
    }
  }
  order.insert(pos, index);
}

}  // namespace

std::size_t Schedule::add_op(ScheduledOp so) {
  if (so.end < so.start) throw std::invalid_argument("add_op: end < start");
  if (so.proc >= proc_order_.size()) {
    throw std::out_of_range("add_op: processor out of range");
  }
  if (so.op >= op_index_.size()) op_index_.resize(so.op + 1, kNone);
  if (op_index_[so.op] == kNone) op_index_[so.op] = ops_.size();
  ops_.push_back(so);
  insert_by_start(proc_order_[so.proc], ops_, ops_.size() - 1, so.start);
  return ops_.size() - 1;
}

std::size_t Schedule::add_comm(ScheduledComm sc) {
  if (sc.end < sc.start) throw std::invalid_argument("add_comm: end < start");
  if (sc.hop.medium >= medium_order_.size()) {
    throw std::out_of_range("add_comm: medium out of range");
  }
  comms_.push_back(sc);
  insert_by_start(medium_order_[sc.hop.medium], comms_, comms_.size() - 1,
                  sc.start);
  return comms_.size() - 1;
}

const ScheduledOp& Schedule::of_op(OpId id) const {
  if (!has_op(id)) {
    throw std::out_of_range("Schedule::of_op: operation not scheduled");
  }
  return ops_[op_index_[id]];
}

bool Schedule::has_op(OpId id) const {
  return id < op_index_.size() && op_index_[id] != kNone;
}

Time Schedule::makespan() const {
  Time end = 0.0;
  for (const ScheduledOp& so : ops_) end = std::max(end, so.end);
  for (const ScheduledComm& sc : comms_) end = std::max(end, sc.end);
  return end;
}

void Schedule::validate(const AlgorithmGraph& alg,
                        const ArchitectureGraph& arch) const {
  // Each op scheduled exactly once, on a compatible processor.
  std::vector<std::size_t> seen(alg.num_operations(), 0);
  for (const ScheduledOp& so : ops_) {
    ++seen.at(so.op);
    const Operation& op = alg.op(so.op);
    const Processor& proc = arch.processor(so.proc);
    if (!op.runs_on(proc.type)) {
      throw std::runtime_error("Schedule: op '" + op.name +
                               "' on incompatible processor '" + proc.name + "'");
    }
    if (op.bound_processor && *op.bound_processor != proc.name) {
      throw std::runtime_error("Schedule: op '" + op.name +
                               "' violates placement constraint");
    }
  }
  for (OpId i = 0; i < alg.num_operations(); ++i) {
    if (seen[i] != 1) {
      throw std::runtime_error("Schedule: op '" + alg.op(i).name +
                               "' scheduled " + std::to_string(seen[i]) +
                               " times");
    }
  }
  // Per-component order and non-overlap.
  for (ProcId p = 0; p < proc_order_.size(); ++p) {
    Time prev_end = -1.0;
    for (std::size_t idx : proc_order_[p]) {
      const ScheduledOp& so = ops_[idx];
      if (so.start + kTimeEps < prev_end) {
        throw std::runtime_error("Schedule: overlap on processor '" +
                                 arch.processor(p).name + "'");
      }
      prev_end = so.end;
    }
  }
  for (MediumId m = 0; m < medium_order_.size(); ++m) {
    Time prev_end = -1.0;
    for (std::size_t idx : medium_order_[m]) {
      const ScheduledComm& sc = comms_[idx];
      if (sc.start + kTimeEps < prev_end) {
        throw std::runtime_error("Schedule: overlap on medium '" +
                                 arch.medium(m).name + "'");
      }
      prev_end = sc.end;
    }
  }
  // Dependency satisfaction.
  const auto& deps = alg.dependencies();
  for (std::size_t di = 0; di < deps.size(); ++di) {
    const DataDep& dep = deps[di];
    const ScheduledOp& prod = of_op(dep.from);
    const ScheduledOp& cons = of_op(dep.to);
    if (prod.proc == cons.proc) {
      if (cons.start + kTimeEps < prod.end) {
        throw std::runtime_error("Schedule: dependency '" +
                                 alg.op(dep.from).name + "' -> '" +
                                 alg.op(dep.to).name + "' violated");
      }
      continue;
    }
    // Cross-processor: collect this dep's hops in hop order.
    std::vector<const ScheduledComm*> hops;
    for (const ScheduledComm& sc : comms_) {
      if (sc.dep_index == di) hops.push_back(&sc);
    }
    if (hops.empty()) {
      throw std::runtime_error("Schedule: missing communication for '" +
                               alg.op(dep.from).name + "' -> '" +
                               alg.op(dep.to).name + "'");
    }
    std::sort(hops.begin(), hops.end(),
              [](const ScheduledComm* a, const ScheduledComm* b) {
                return a->hop_index < b->hop_index;
              });
    Time ready = prod.end;
    ProcId at = prod.proc;
    for (const ScheduledComm* sc : hops) {
      if (sc->hop.from_proc != at) {
        throw std::runtime_error("Schedule: broken route for dependency '" +
                                 alg.op(dep.from).name + "' -> '" +
                                 alg.op(dep.to).name + "'");
      }
      if (sc->start + kTimeEps < ready) {
        throw std::runtime_error("Schedule: hop starts before data ready for '" +
                                 alg.op(dep.from).name + "'");
      }
      ready = sc->end;
      at = sc->hop.to_proc;
    }
    if (at != cons.proc || cons.start + kTimeEps < ready) {
      throw std::runtime_error("Schedule: data arrives late for '" +
                               alg.op(dep.to).name + "'");
    }
  }
}

std::string Schedule::to_string(const AlgorithmGraph& alg,
                                const ArchitectureGraph& arch) const {
  std::ostringstream os;
  os << "schedule makespan=" << makespan() << "\n";
  for (ProcId p = 0; p < proc_order_.size(); ++p) {
    os << "  " << arch.processor(p).name << ":";
    for (std::size_t idx : proc_order_[p]) {
      const ScheduledOp& so = ops_[idx];
      os << "  " << alg.op(so.op).name << "[" << so.start << "," << so.end
         << ")";
    }
    os << "\n";
  }
  for (MediumId m = 0; m < medium_order_.size(); ++m) {
    os << "  " << arch.medium(m).name << ":";
    for (std::size_t idx : medium_order_[m]) {
      const ScheduledComm& sc = comms_[idx];
      const DataDep& dep = alg.dependencies()[sc.dep_index];
      os << "  " << alg.op(dep.from).name << ">" << alg.op(dep.to).name << "["
         << sc.start << "," << sc.end << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ecsim::aaa
