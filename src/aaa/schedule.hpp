// The static, off-line, non-preemptive schedule produced by the adequation:
// a total order of operations on each processor and of communications on
// each medium, with WCET-based start/completion instants (paper §3.2: "this
// off-line non-preemptive schedule defines a total order on the operations
// ... for each hardware component").
#pragma once

#include <string>
#include <vector>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/routing.hpp"

namespace ecsim::aaa {

struct ScheduledOp {
  OpId op = 0;
  ProcId proc = 0;
  Time start = 0.0;
  Time end = 0.0;
};

struct ScheduledComm {
  std::size_t dep_index = 0;  // index into AlgorithmGraph::dependencies()
  Hop hop;
  std::size_t hop_index = 0;  // position within the multi-hop route
  Time start = 0.0;
  Time end = 0.0;
};

class Schedule {
 public:
  Schedule(std::size_t n_procs, std::size_t n_media)
      : proc_order_(n_procs), medium_order_(n_media) {}

  std::size_t add_op(ScheduledOp so);
  std::size_t add_comm(ScheduledComm sc);

  const std::vector<ScheduledOp>& ops() const { return ops_; }
  const std::vector<ScheduledComm>& comms() const { return comms_; }
  /// Indices into ops() in execution order on processor p.
  const std::vector<std::size_t>& ops_on(ProcId p) const {
    return proc_order_.at(p);
  }
  /// Indices into comms() in execution order on medium m.
  const std::vector<std::size_t>& comms_on(MediumId m) const {
    return medium_order_.at(m);
  }

  /// Scheduled entry of a given algorithm operation (its first one if it
  /// was added twice); throws std::out_of_range if absent. O(1).
  const ScheduledOp& of_op(OpId id) const;
  bool has_op(OpId id) const;

  Time makespan() const;

  std::size_t num_procs() const { return proc_order_.size(); }
  std::size_t num_media() const { return medium_order_.size(); }

  /// Structural validation against the algorithm/architecture:
  ///  - per-component intervals are ordered and non-overlapping;
  ///  - every data dependency is satisfied (producer end <= consumer start,
  ///    with route communications in between for cross-processor deps);
  ///  - every op is scheduled exactly once on a compatible processor.
  /// Throws std::runtime_error describing the first violation.
  void validate(const AlgorithmGraph& alg, const ArchitectureGraph& arch) const;

  /// Human-readable Gantt-style listing.
  std::string to_string(const AlgorithmGraph& alg,
                        const ArchitectureGraph& arch) const;

 private:
  std::vector<ScheduledOp> ops_;
  std::vector<ScheduledComm> comms_;
  std::vector<std::size_t> op_index_;  // OpId -> index into ops_, or kNone
  std::vector<std::vector<std::size_t>> proc_order_;
  std::vector<std::vector<std::size_t>> medium_order_;
};

}  // namespace ecsim::aaa
