// Conformance checks between schedule (prediction), generated code and VM
// execution (reality): the quantitative form of the paper's claims that the
// generated code "satisfies the real-time constraints" and "is deadlock
// free".
#pragma once

#include <string>

#include "exec/executive_vm.hpp"

namespace ecsim::exec {

/// Violations a ConformanceReport spells out before it only counts them.
inline constexpr std::size_t kReportedViolations = 5;

struct ConformanceReport {
  bool ok = true;
  /// Empty when ok. A deadlock report, then the first kReportedViolations
  /// violations and "... and K more" for the rest.
  std::string violations;
  std::size_t num_violations = 0;  ///< every violation, reported or not

  std::size_t checked_instances = 0;
  /// Max |VM instant - (schedule instant + k*period)| under WCET execution.
  Time max_time_error = 0.0;
};

/// With exec_time == WCET and period >= makespan and all algorithm sources
/// being sensors, every op instance of iteration k must start/end exactly at
/// its schedule instant shifted by k*period. Verifies that, plus per-
/// processor order preservation and non-overlap.
ConformanceReport check_wcet_conformance(const AlgorithmGraph& alg,
                                         const ArchitectureGraph& arch,
                                         const Schedule& sched,
                                         const VmResult& vm, Time period,
                                         double tol = 1e-9);

/// Checks that execution respects the schedule's per-processor total order
/// and never overlaps two ops on one processor — for *any* execution times.
ConformanceReport check_order_preservation(const AlgorithmGraph& alg,
                                           const ArchitectureGraph& arch,
                                           const Schedule& sched,
                                           const VmResult& vm,
                                           double tol = 1e-9);

/// Deadline analysis for overrun scenarios (actual execution times above
/// WCET, e.g. a mis-characterized operation): every instance of iteration k
/// must complete by (k+1) * period. Returns the violations — the quantity a
/// designer checks before trusting a WCET table.
struct DeadlineReport {
  std::size_t checked_instances = 0;
  std::size_t misses = 0;
  Time worst_overrun = 0.0;  // max completion - deadline over misses
  std::string details;       // first few misses, human-readable
};

DeadlineReport check_deadlines(const AlgorithmGraph& alg, const VmResult& vm,
                               Time period);

}  // namespace ecsim::exec
