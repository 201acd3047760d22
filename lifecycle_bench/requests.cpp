#include "requests.hpp"

#include <algorithm>
#include <cmath>

#include "ir/ir.hpp"
#include "par/fault_sweep.hpp"
#include "par/sweep.hpp"

using namespace ecsim;

namespace lcb {
namespace {

constexpr svc::Verb kVerbs[] = {svc::Verb::kSweepTiming, svc::Verb::kSweepArch,
                                svc::Verb::kSweepNetwork,
                                svc::Verb::kFaultSweep};

std::size_t verb_slot(svc::Verb v) {
  for (std::size_t i = 0; i < 4; ++i) {
    if (kVerbs[i] == v) return i;
  }
  return 0;
}

/// `n` distinct ascending values drawn by `draw`.
template <class Draw>
std::vector<double> axis(std::size_t n, Draw draw) {
  std::vector<double> v;
  while (v.size() < n) {
    const double x = draw();
    if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// The CLI's canonical grid axes (`ecsim_flow sweep|fault` with defaults).
std::vector<double> canonical_rows(svc::Verb v) {
  switch (v) {
    case svc::Verb::kSweepTiming:
      return {0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95};
    case svc::Verb::kSweepArch:
      return {1e5, 1e4, 4e3, 2e3, 1e3};
    case svc::Verb::kSweepNetwork:
      return sweep::network_servo_grid().bus_loads;
    default:
      return {0.0, 0.05, 0.1, 0.2, 0.4};
  }
}

std::vector<double> canonical_cols(svc::Verb v) {
  switch (v) {
    case svc::Verb::kSweepTiming:
      return {0.0, 0.1, 0.2, 0.3, 0.5};
    case svc::Verb::kSweepArch:
      return {0.5, 1.0, 2.0, 4.0};
    case svc::Verb::kSweepNetwork:
      return {0.0, 1.0};
    default:
      return {0.0, 0.001, 0.002, 0.004};
  }
}

}  // namespace

const char* verb_name(svc::Verb v) {
  switch (v) {
    case svc::Verb::kSweepTiming:
      return "sweep timing";
    case svc::Verb::kSweepArch:
      return "sweep arch";
    case svc::Verb::kSweepNetwork:
      return "sweep network";
    case svc::Verb::kFaultSweep:
      return "fault sweep";
    default:
      return "other";
  }
}

RequestStream::RequestStream(std::uint64_t seed)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 7), fresh_by_verb_(4) {
  canonical_.fill(kNone);
}

svc::Request RequestStream::at(std::size_t i) {
  while (reqs_.size() <= i) grow();
  return reqs_[i];
}

std::size_t RequestStream::first_of(std::size_t i) {
  while (reqs_.size() <= i) grow();
  return first_[i];
}

void RequestStream::grow() {
  if (round_.empty()) {
    round_.assign(std::begin(kVerbs), std::end(kVerbs));
    for (std::size_t k = round_.size(); k > 1; --k) {
      std::swap(round_[k - 1], round_[rng_.below(k)]);
    }
  }
  const svc::Verb verb = round_.back();
  round_.pop_back();
  const std::size_t slot = verb_slot(verb);
  std::vector<std::size_t>& fresh = fresh_by_verb_[slot];
  const std::size_t index = reqs_.size();
  if (++asked_[slot] % kRepeatEvery == 0 && !fresh.empty()) {
    // Re-run one of the verb's recent fresh requests: every request gets
    // the same expected number of repeats, wherever it sits in the stream.
    const std::size_t window = std::min(fresh.size(), kRepeatWindow);
    const std::size_t of = fresh[fresh.size() - 1 - rng_.below(window)];
    reqs_.push_back(reqs_[of]);
    first_.push_back(of);
    return;
  }
  svc::Request req;
  req.verb = verb;
  req.backend = "interp";
  if (++drawn_[slot] % kCanonicalEvery == 0) {
    std::size_t& canon = canonical_[slot];
    if (canon != kNone) {
      reqs_.push_back(reqs_[canon]);
      first_.push_back(canon);
      return;
    }
    req.rows = canonical_rows(verb);
    req.cols = canonical_cols(verb);
    canon = index;
    reqs_.push_back(std::move(req));
    first_.push_back(index);
    fresh.push_back(index);
    return;
  }
  // The next shape of the verb's cycle over 1x1 .. R x C.
  const std::size_t max_rows = canonical_rows(verb).size();
  const std::size_t max_cols = canonical_cols(verb).size();
  const std::size_t shape = shapes_[slot]++;
  const std::size_t n_rows = 1 + shape % max_rows;
  const std::size_t n_cols = 1 + (shape / max_rows) % max_cols;
  switch (verb) {
    case svc::Verb::kSweepTiming:  // La/Ts x jitter/Ts
      req.rows = axis(n_rows, [&] { return rng_.uniform(0.0, 0.95); });
      req.cols = axis(n_cols, [&] { return rng_.uniform(0.0, 0.5); });
      break;
    case svc::Verb::kSweepArch:  // bus bandwidth x controller WCET scale
      req.rows = axis(n_rows, [&] {
        return std::pow(10.0, rng_.uniform(3.0, 5.0));
      });
      req.cols = axis(n_cols, [&] { return rng_.uniform(0.5, 4.0); });
      break;
    case svc::Verb::kSweepNetwork:  // bus load x {can, tdma}
      req.rows = axis(n_rows, [&] { return rng_.uniform(0.0, 0.8); });
      req.cols = n_cols == 2 ? std::vector<double>{0.0, 1.0}
                             : std::vector<double>{
                                   static_cast<double>(rng_.below(2))};
      break;
    default:  // fault sweep: loss rate x delivery delay
      req.rows = axis(n_rows, [&] { return rng_.uniform(0.0, 0.4); });
      req.cols = axis(n_cols, [&] { return rng_.uniform(0.0, 0.004); });
      req.seed = 1 + rng_.below(4);  // the fault stream seed (--seed)
      break;
  }
  reqs_.push_back(std::move(req));
  first_.push_back(index);
  fresh.push_back(index);
}

Fixtures make_fixtures() {
  Fixtures fx{sweep::servo_loop(), sweep::network_servo_grid(), {}};
  fx.servo_ir_hash = ir::hash_hex(translate::loop_ir(fx.servo));
  return fx;
}

Evaluated evaluate(const svc::Request& req, const Fixtures& fx,
                   const par::BatchOptions& batch) {
  Evaluated out;
  switch (req.verb) {
    case svc::Verb::kSweepTiming: {
      sweep::TimingGrid grid;
      grid.loop = fx.servo;
      grid.latency_fracs = req.rows;
      grid.jitter_fracs = req.cols;
      for (const sweep::SweepCell& c : sweep::SweepRunner(batch).run(grid)) {
        out.cells.push_back(svc::encode_cell(c));
      }
      break;
    }
    case svc::Verb::kSweepArch: {
      sweep::ArchitectureGrid grid;
      grid.loop = fx.servo;
      grid.bus_bandwidths = req.rows;
      grid.wcet_scales = req.cols;
      grid.dist.bind_ctrl = "P1";  // controller across the bus (CLI contract)
      for (const sweep::SweepCell& c : sweep::SweepRunner(batch).run(grid)) {
        out.cells.push_back(svc::encode_cell(c));
      }
      break;
    }
    case svc::Verb::kSweepNetwork: {
      sweep::NetworkGrid grid = fx.network;
      grid.bus_loads = req.rows;
      grid.scenarios.clear();
      for (const double c : req.cols) {
        grid.scenarios.push_back(sweep::scenario_of_code(c));
      }
      for (const sweep::NetworkCell& c : sweep::run_network_sweep(grid, batch)) {
        out.cells.push_back(svc::encode_cell(c));
      }
      break;
    }
    case svc::Verb::kFaultSweep: {
      sweep::FaultGrid grid;
      grid.loop = fx.servo;
      grid.dist.bind_ctrl = "P1";
      grid.loss_rates = req.rows;
      grid.delays = req.cols;
      grid.fault_seed = req.seed;
      for (const sweep::FaultCell& c : sweep::run_fault_sweep(grid, batch)) {
        out.messages_lost += c.messages_lost;
        out.messages_deferred += c.messages_deferred;
        out.cells.push_back(svc::encode_cell(c));
      }
      break;
    }
    default:
      throw std::invalid_argument("evaluate: not an exploration verb");
  }
  for (const std::string& c : out.cells) {
    out.sim_s += cell_sim_s(req.verb, c, req.t_end);
  }
  return out;
}

double cell_sim_s(svc::Verb verb, const std::string& payload, double t_end) {
  if (verb != svc::Verb::kSweepNetwork) return t_end;
  // Nominal and retuned co-simulations, unless the cell fell outside the
  // schedulable region before simulating.
  sweep::NetworkCell cell;
  if (!svc::decode_cell(payload, cell) || !cell.schedulable) return 0.0;
  return 2.0 * t_end;
}

}  // namespace lcb
