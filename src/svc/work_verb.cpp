#include "svc/work_verb.hpp"

#include "backend/kind.hpp"
#include "fault/fault_plan.hpp"
#include "par/batch_runner.hpp"
#include "par/fault_sweep.hpp"
#include "par/monte_carlo.hpp"
#include "par/network_sweep.hpp"
#include "par/sweep.hpp"
#include "svc/warm_cache.hpp"

namespace ecsim::svc {

namespace {

// ---- evaluation ------------------------------------------------------------

/// threads=1 short-circuits BatchRunner to the serial path, so a unit is
/// computed by the exact code a serial in-process run uses.
par::BatchOptions serial() {
  par::BatchOptions batch;
  batch.threads = 1;
  return batch;
}

translate::LoopSpec servo(const Request& req, WarmCache& warm) {
  translate::LoopSpec loop = warm.loop(req.ts, req.t_end, loop_seed(req)).loop;
  loop.backend = backend::parse_kind(req.backend);
  return loop;
}

/// Unit `unit` of a grid request: `Run` on its one-cell request.
template <auto Run>
std::string grid_cell(const Request& req, std::size_t unit, WarmCache& warm) {
  Request one = req;
  one.rows = {row_of(req, unit)};
  one.cols = {col_of(req, unit)};
  return encode_cell(Run(one, servo(req, warm), serial())[0]);
}

std::string fault_trial(const Request& req, std::size_t unit,
                        WarmCache& warm) {
  Request one = req;
  one.trials = 1;
  one.seed = unit_seed(req, unit);
  return encode_cell(run_fault_mc(one, servo(req, warm), serial(), 1).cells[0]);
}

std::string vm_run(const Request& req, std::size_t /*unit*/,
                   WarmCache& warm) {
  const WarmSpec& w = warm.spec(req.spec_text);
  sweep::MonteCarloSpec spec;
  spec.trials = req.trials;
  spec.iterations = req.iterations;
  par::BatchOptions batch = serial();
  batch.seed = req.seed;
  return encode_mc(sweep::run_monte_carlo(w.spec.algorithm,
                                          w.spec.architecture, w.sched,
                                          w.code, spec, batch));
}

// ---- fault plans and validation --------------------------------------------

std::uint64_t fault_cell_hash(const Request& req, std::size_t unit) {
  return fault::hash(sweep::fault_cell_plan(
      /*medium=*/"", row_of(req, unit), col_of(req, unit),
      /*delay_probability=*/1.0, req.seed));
}

std::uint64_t fault_trial_hash(const Request& req, std::size_t unit) {
  return fault::hash(sweep::fault_cell_plan(
      /*medium=*/"", req.loss, /*delay=*/0.0, /*delay_probability=*/1.0,
      unit_seed(req, unit)));
}

const char* check_scenario_codes(const Request& req) {
  for (const double c : req.cols) {
    if (c != 0.0 && c != 1.0) {
      return "sweep_network cols must be scenario codes (0=can 1=tdma)";
    }
  }
  return nullptr;
}

constexpr WorkVerb kWorkVerbs[] = {
    {Verb::kSweepTiming, Shape::kGrid, "la", "j", nullptr, nullptr,
     &grid_cell<run_timing>},
    {Verb::kSweepArch, Shape::kGrid, "bw", "ws", nullptr, nullptr,
     &grid_cell<run_arch>},
    {Verb::kSweepNetwork, Shape::kGrid, "load", "scen", &check_scenario_codes,
     nullptr, &grid_cell<run_network>},
    {Verb::kFaultSweep, Shape::kGrid, "loss", "delay", nullptr,
     &fault_cell_hash, &grid_cell<run_fault_sweep>},
    {Verb::kFaultMc, Shape::kTrials, nullptr, nullptr, nullptr,
     &fault_trial_hash, &fault_trial},
    {Verb::kVmMc, Shape::kSpecRun, nullptr, nullptr, nullptr, nullptr,
     &vm_run},
};

}  // namespace

std::span<const WorkVerb> work_verbs() { return kWorkVerbs; }

const WorkVerb* find_work_verb(Verb v) {
  for (const WorkVerb& w : kWorkVerbs) {
    if (w.verb == v) return &w;
  }
  return nullptr;
}

std::uint64_t loop_seed(const Request& req) {
  const WorkVerb* w = find_work_verb(req.verb);
  return w != nullptr && w->fault_hash != nullptr ? 1 : req.seed;
}

std::uint64_t unit_seed(const Request& req, std::size_t unit) {
  const WorkVerb* w = find_work_verb(req.verb);
  return w != nullptr && w->shape == Shape::kTrials
             ? req.seed + static_cast<std::uint64_t>(unit)
             : req.seed;
}

// ---- in-process runs --------------------------------------------------------

std::vector<sweep::SweepCell> run_timing(const Request& req,
                                         const translate::LoopSpec& loop,
                                         const par::BatchOptions& batch) {
  return sweep::SweepRunner(batch).run(
      sweep::TimingGrid{loop, req.rows, req.cols});
}

std::vector<sweep::SweepCell> run_arch(const Request& req,
                                       const translate::LoopSpec& loop,
                                       const par::BatchOptions& batch) {
  sweep::ArchitectureGrid grid;
  grid.loop = loop;
  grid.dist.bind_ctrl = "P1";  // controller across the bus
  grid.bus_bandwidths = req.rows;
  grid.wcet_scales = req.cols;
  return sweep::SweepRunner(batch).run(grid);
}

std::vector<sweep::NetworkCell> run_network(const Request& req,
                                            const translate::LoopSpec& loop,
                                            const par::BatchOptions& batch) {
  // The canonical EXP-N1 grid shape (network_servo_grid) over the request's
  // axes, closing `loop` instead of the grid's own.
  sweep::NetworkGrid grid = sweep::network_servo_grid(req.ts, req.t_end);
  grid.loop = loop;
  grid.bus_loads = req.rows;
  grid.scenarios.clear();
  for (const double c : req.cols) {
    grid.scenarios.push_back(sweep::scenario_of_code(c));
  }
  return sweep::run_network_sweep(grid, batch);
}

std::vector<sweep::FaultCell> run_fault_sweep(const Request& req,
                                              const translate::LoopSpec& loop,
                                              const par::BatchOptions& batch) {
  sweep::FaultGrid grid;
  grid.loop = loop;
  grid.dist.bind_ctrl = "P1";  // controller across the bus: real traffic
  grid.loss_rates = req.rows;
  grid.delays = req.cols;
  grid.fault_seed = req.seed;
  return sweep::run_fault_sweep(grid, batch);
}

sweep::FaultMonteCarloResult run_fault_mc(const Request& req,
                                          const translate::LoopSpec& loop,
                                          const par::BatchOptions& batch,
                                          std::size_t batch_width) {
  sweep::FaultMonteCarloSpec spec;
  spec.loop = loop;
  spec.dist.bind_ctrl = "P1";
  spec.loss_rate = req.loss;
  spec.trials = req.trials;
  spec.base_seed = req.seed;
  spec.batch_width = batch_width;
  return sweep::run_fault_monte_carlo(spec, batch);
}

}  // namespace ecsim::svc
