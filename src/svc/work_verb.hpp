// The work verbs of the sweep service (DESIGN.md §3.9), one descriptor each.
// The request codec (svc/protocol.cpp), the cache keys (svc/cache_key.cpp),
// the daemon (svc/server.cpp) and the client read a verb's shape, key
// labels, seed rule and evaluation from its entry. Adding a verb is its wire
// name, one entry in svc/work_verb.cpp, the field list of its cell type
// (svc/protocol.cpp) and its run function below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace ecsim::svc {

class WarmCache;

/// The request parameters a verb carries, which fix how it splits into
/// work units.
enum class Shape {
  kGrid,     ///< rows × cols axes; one unit per cell, row-major
  kTrials,   ///< loss + trials; one unit per trial
  kSpecRun,  ///< trials + iterations + spec_text; the whole run is one unit
};

struct WorkVerb {
  Verb verb;
  Shape shape;
  const char* row_label;  ///< cache-key labels of the grid axes (kGrid)
  const char* col_label;
  /// Extra request validation: an error message, or nullptr when valid.
  /// Null when the shape's own checks suffice.
  const char* (*check)(const Request& req);
  /// fault::hash of the plan that unit `unit` arms; null when the verb arms
  /// none. A verb with a plan seeds it from Request::seed (loop_seed).
  std::uint64_t (*fault_hash)(const Request& req, std::size_t unit);
  /// Compute unit `unit` in-process and return its encoded result cell
  /// (encode_cell, or encode_mc for the whole-run kSpecRun verb).
  std::string (*evaluate)(const Request& req, std::size_t unit,
                          WarmCache& warm);
};

std::span<const WorkVerb> work_verbs();

/// The entry of `v`; nullptr for the control verbs.
const WorkVerb* find_work_verb(Verb v);

/// Seed of the servo-loop model `req` runs on. Verbs that arm a fault plan
/// seed the FAULT stream from Request::seed and keep the loop at seed 1, so
/// fault grids compare against the same plant noise.
std::uint64_t loop_seed(const Request& req);

/// Seed unit `unit` runs with. Trial t of base seed b is trial 0 of base
/// seed b+t, so overlapping Monte Carlo seed ranges share cache entries.
std::uint64_t unit_seed(const Request& req, std::size_t unit);

/// Grid coordinates of unit `unit` of a kGrid request (row-major).
inline double row_of(const Request& req, std::size_t unit) {
  return req.rows[unit / req.cols.size()];
}
inline double col_of(const Request& req, std::size_t unit) {
  return req.cols[unit % req.cols.size()];
}

// ---- in-process runs of a whole request -------------------------------------
// The CLI's local path runs these on its thread pool; a daemon unit runs the
// same function serially on its one-cell (or one-trial) request, so both
// compute every cell with the same code. `loop` is the servo loop the cells
// close (seeded per loop_seed).

/// Latency × jitter cells.
std::vector<sweep::SweepCell> run_timing(const Request& req,
                                         const translate::LoopSpec& loop,
                                         const par::BatchOptions& batch);
/// Bus bandwidth × controller-WCET cells.
std::vector<sweep::SweepCell> run_arch(const Request& req,
                                       const translate::LoopSpec& loop,
                                       const par::BatchOptions& batch);
std::vector<sweep::NetworkCell> run_network(const Request& req,
                                            const translate::LoopSpec& loop,
                                            const par::BatchOptions& batch);
std::vector<sweep::FaultCell> run_fault_sweep(const Request& req,
                                              const translate::LoopSpec& loop,
                                              const par::BatchOptions& batch);
/// kFaultMc; `batch_width` trials per task (0 = the SIMD-preferred width).
sweep::FaultMonteCarloResult run_fault_mc(const Request& req,
                                          const translate::LoopSpec& loop,
                                          const par::BatchOptions& batch,
                                          std::size_t batch_width);

}  // namespace ecsim::svc
