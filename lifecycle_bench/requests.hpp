// The exploration request stream shared by the explore and service
// workloads, and its in-process evaluation with the CLI's grid shapes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "par/batch_runner.hpp"
#include "par/network_sweep.hpp"
#include "svc/protocol.hpp"
#include "translate/cosim.hpp"

#include "common.hpp"

namespace lcb {

/// Seeded stream of design-space exploration requests. Verbs come in
/// shuffled rounds of one `sweep timing`, `sweep arch`, `sweep network` and
/// `fault sweep` each, so every seed sees the same verb mix. Every
/// kRepeatEvery-th request of a verb repeats one of its last kRepeatWindow
/// fresh requests (drawn by the seed); of the others, every
/// kCanonicalEvery-th is the CLI's canonical grid for the verb and the rest
/// are fresh grids. Fresh grids of a verb cycle through every shape from
/// 1x1 up to the canonical R x C. So every seed sees the same mix of verbs,
/// repeats, canonical grids and sizes at the same positions; the seed draws
/// the verb order within a round, which requests repeat, and the fresh
/// grids' coordinates from the CLI's axis ranges.
class RequestStream {
 public:
  static constexpr std::size_t kRepeatEvery = 4;
  static constexpr std::size_t kCanonicalEvery = 10;
  static constexpr std::size_t kRepeatWindow = 16;  // recent fresh requests
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit RequestStream(std::uint64_t seed);

  /// Request i (generated on demand; the stream is unbounded).
  ecsim::svc::Request at(std::size_t i);
  /// Index of the first request with the same parameters as request i
  /// (i itself when i is not a repeat).
  std::size_t first_of(std::size_t i);

 private:
  void grow();

  SplitMix rng_;
  std::vector<ecsim::svc::Request> reqs_;
  std::vector<std::size_t> first_;
  std::vector<std::vector<std::size_t>> fresh_by_verb_;
  std::vector<ecsim::svc::Verb> round_;
  std::array<std::size_t, 4> canonical_;  // per verb, kNone until drawn
  std::array<std::size_t, 4> asked_{};    // per verb: requests so far
  std::array<std::size_t, 4> drawn_{};    // per verb: non-repeats so far
  std::array<std::size_t, 4> shapes_{};   // per verb: fresh grids drawn
};

/// Built once per run: the loop models every request starts from.
struct Fixtures {
  ecsim::translate::LoopSpec servo;     // sweep::servo_loop()
  ecsim::sweep::NetworkGrid network;    // sweep::network_servo_grid()
  std::string servo_ir_hash;            // the loop model's IR identity
};
Fixtures make_fixtures();

/// One evaluated request: its cells encoded with svc::encode_cell (the
/// daemon's unit payload bytes), in row-major order.
struct Evaluated {
  std::vector<std::string> cells;
  double sim_s = 0.0;                // co-simulated seconds behind the cells
  std::size_t messages_lost = 0;     // fault sweeps
  std::size_t messages_deferred = 0;
};

/// Evaluate a request in-process exactly as `ecsim_flow sweep|fault` does,
/// on `batch`. Throws what the sweep throws.
Evaluated evaluate(const ecsim::svc::Request& req, const Fixtures& fx,
                   const ecsim::par::BatchOptions& batch);

/// Co-simulated seconds behind one cell payload of `verb`.
double cell_sim_s(ecsim::svc::Verb verb, const std::string& payload,
                  double t_end);

const char* verb_name(ecsim::svc::Verb v);

}  // namespace lcb
