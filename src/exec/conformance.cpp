#include "exec/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <sstream>

namespace ecsim::exec {

namespace {

/// Builds ConformanceReport::violations: the deadlock report, the first
/// kReportedViolations violations, then a count of the rest. A violating
/// CAN run has thousands of violating instances; formatting them all cost
/// more than the check itself.
class ViolationLog {
 public:
  ViolationLog(ConformanceReport& rep, const VmResult& vm) : rep_(rep) {
    if (vm.deadlock) {
      rep_.ok = false;
      text_ << "deadlock: " << vm.deadlock_info << "; ";
    }
  }
  /// Records one violation; returns the stream to describe it on, or null
  /// once enough have been spelled out.
  std::ostream* add() {
    rep_.ok = false;
    return rep_.num_violations++ < kReportedViolations ? &text_ : nullptr;
  }
  void finish() {
    if (rep_.num_violations > kReportedViolations) {
      text_ << "... and " << rep_.num_violations - kReportedViolations
            << " more";
    }
    rep_.violations = text_.str();
  }

 private:
  ConformanceReport& rep_;
  std::ostringstream text_;
};

}  // namespace

ConformanceReport check_wcet_conformance(const AlgorithmGraph& alg,
                                         const ArchitectureGraph& arch,
                                         const Schedule& sched,
                                         const VmResult& vm, Time period,
                                         double tol) {
  (void)arch;
  ConformanceReport rep;
  ViolationLog log(rep, vm);
  for (const OpInstance& oi : vm.ops) {
    const aaa::ScheduledOp& so = sched.of_op(oi.op);
    const Time expect_start =
        so.start + static_cast<Time>(oi.iteration) * period;
    const Time expect_end = so.end + static_cast<Time>(oi.iteration) * period;
    const double err = std::max(std::abs(oi.start - expect_start),
                                std::abs(oi.end - expect_end));
    rep.max_time_error = std::max(rep.max_time_error, err);
    ++rep.checked_instances;
    if (err > tol) {
      if (std::ostream* os = log.add()) {
        *os << "op '" << alg.op(oi.op).name << "' iter " << oi.iteration
            << " at [" << oi.start << "," << oi.end << ") expected ["
            << expect_start << "," << expect_end << "); ";
      }
    }
  }
  log.finish();
  return rep;
}

ConformanceReport check_order_preservation(const AlgorithmGraph& alg,
                                           const ArchitectureGraph& arch,
                                           const Schedule& sched,
                                           const VmResult& vm, double tol) {
  ConformanceReport rep;
  ViolationLog log(rep, vm);
  // Schedule position of each op on its processor.
  struct Position {
    ProcId proc = kNone;
    std::size_t index = 0;
  };
  std::vector<Position> position(alg.num_operations());
  for (ProcId p = 0; p < sched.num_procs(); ++p) {
    const auto& order = sched.ops_on(p);
    for (std::size_t i = 0; i < order.size(); ++i) {
      position.at(sched.ops()[order[i]].op) = {p, i};
    }
  }
  const auto position_of = [&](OpId op) -> const Position& {
    const Position& pos = position.at(op);
    if (pos.proc == kNone) {
      throw std::out_of_range("check_order_preservation: op not scheduled");
    }
    return pos;
  };
  // Group instances per processor, sort by start, verify they appear in
  // (iteration, schedule-position) lexicographic order and do not overlap.
  std::vector<std::vector<OpInstance>> per_proc(arch.num_processors());
  for (const OpInstance& oi : vm.ops) per_proc.at(oi.proc).push_back(oi);
  for (ProcId p = 0; p < per_proc.size(); ++p) {
    auto& v = per_proc[p];
    std::sort(v.begin(), v.end(), [](const OpInstance& a, const OpInstance& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.iteration < b.iteration;
    });
    for (std::size_t i = 0; i < v.size(); ++i) {
      ++rep.checked_instances;
      const Position& pos = position_of(v[i].op);
      if (pos.proc != p) {
        if (std::ostream* os = log.add()) {
          *os << "op '" << alg.op(v[i].op).name
              << "' ran on wrong processor; ";
        }
      }
      if (i == 0) continue;
      const Position& prev = position_of(v[i - 1].op);
      const bool order_ok =
          v[i - 1].iteration < v[i].iteration ||
          (v[i - 1].iteration == v[i].iteration && prev.index < pos.index);
      if (!order_ok) {
        if (std::ostream* os = log.add()) {
          *os << "order violation on processor " << arch.processor(p).name
              << ": '" << alg.op(v[i - 1].op).name << "' iter "
              << v[i - 1].iteration << " vs '" << alg.op(v[i].op).name
              << "' iter " << v[i].iteration << "; ";
        }
      }
      if (v[i].start + tol < v[i - 1].end) {
        if (std::ostream* os = log.add()) {
          *os << "overlap on processor " << arch.processor(p).name << "; ";
        }
      }
    }
  }
  log.finish();
  return rep;
}

DeadlineReport check_deadlines(const AlgorithmGraph& alg, const VmResult& vm,
                               Time period) {
  DeadlineReport rep;
  std::ostringstream details;
  std::size_t reported = 0;
  for (const OpInstance& oi : vm.ops) {
    ++rep.checked_instances;
    const Time deadline = static_cast<Time>(oi.iteration + 1) * period;
    if (oi.end > deadline + 1e-12) {
      ++rep.misses;
      rep.worst_overrun = std::max(rep.worst_overrun, oi.end - deadline);
      if (reported < kReportedViolations) {
        details << alg.op(oi.op).name << " iter " << oi.iteration
                << " finished " << oi.end - deadline << " late; ";
        ++reported;
      }
    }
  }
  rep.details = details.str();
  return rep;
}

}  // namespace ecsim::exec
