// explore: design-space exploration in-process. One op is one exploration
// request from the shared seeded stream (requests.hpp), evaluated on
// par::BatchRunner with min(4, nproc) threads, interp backend and a 1.0 s
// horizon, exactly as `ecsim_flow sweep|fault` runs it. Closed loop: the
// next request goes out when the previous one has returned.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "control/delay_compensation.hpp"
#include "mathlib/linalg.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "par/network_sweep.hpp"
#include "par/sweep.hpp"

#include "common.hpp"
#include "requests.hpp"

using namespace ecsim;

namespace lcb {
namespace {

constexpr std::size_t kReplayCells = 6;  // per replayed cell kind
constexpr int kHorizonReps = 5;
// A run is kRounds rounds over the first n requests of the stream, n =
// kRequestsPerSecond per second of run time: the kRounds * n requests take
// about n / kRequestsPerSecond seconds on a 4-vCPU x86-64 host.
constexpr std::size_t kRounds = 5;
constexpr double kRequestsPerSecond = 12.0;
constexpr std::size_t kMinRequests = 8;

std::size_t explore_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

struct Seen {
  std::string failure;               // "" = succeeded
  std::vector<std::string> cells;
};

struct Pass {
  std::size_t ops = 0;
  std::size_t cells = 0;
  double wall_s = 0.0;
  OpLog log;
  std::size_t fault_cells = 0;
  std::size_t messages_lost = 0;
  std::size_t messages_deferred = 0;
};

/// Run requests [0, n) of the stream, `rounds` times over. Every request
/// that repeats an earlier one (in the stream or in an earlier round) is
/// compared with its first occurrence outside the timed window. `probe`
/// (may be null) samples set-up between requests.
Pass run_pass(RequestStream& stream, std::size_t n, std::size_t rounds,
              const Fixtures& fx, const par::BatchOptions& batch, Spans& spans,
              std::map<std::size_t, Seen>& seen, Result& r,
              SetupProbe* probe) {
  Pass p;
  const std::size_t total = n * rounds;
  for (std::size_t k = 0; k < total; ++k) {
    if (probe != nullptr) {
      probe->tick(static_cast<double>(k) / static_cast<double>(total));
    }
    const std::size_t i = k % n;
    const svc::Request req = stream.at(i);
    Seen s;
    Evaluated ev;
    const auto t0 = Clock::now();
    try {
      Spans::Scope op(spans, "op", "explore.request");
      Spans::Scope sweep(spans, "par", verb_name(req.verb));
      ev = evaluate(req, fx, batch);
    } catch (const std::exception& e) {
      s.failure = std::string("exception: ") + e.what();
    }
    const double dt = seconds_since(t0);
    ++p.ops;
    p.cells += req.units();
    p.wall_s += dt;
    p.log.add(i, dt, static_cast<double>(req.units()), ev.sim_s);
    if (req.verb == svc::Verb::kFaultSweep && s.failure.empty()) {
      p.fault_cells += ev.cells.size();
      p.messages_lost += ev.messages_lost;
      p.messages_deferred += ev.messages_deferred;
    }
    ++r.attempted;
    if (!s.failure.empty()) {
      r.fail(s.failure.substr(0, 120) + " [" + verb_name(req.verb) + "]");
    }
    s.cells = std::move(ev.cells);
    const std::size_t first = stream.first_of(i);
    const auto f = seen.find(first);
    if (f == seen.end()) {
      seen.emplace(i, std::move(s));
    } else {
      const bool same = f->second.failure == s.failure &&
                        f->second.cells == s.cells;
      r.check(same, "request " + std::to_string(i) + " (" +
                        verb_name(req.verb) + ", round " +
                        std::to_string(k / n) + ") differs from request " +
                        std::to_string(first));
      if (!same && s.failure.empty()) {
        r.fail("check: repeated request differs [" +
               std::string(verb_name(req.verb)) + "]");
      }
    }
  }
  if (probe != nullptr) probe->tick(1.0);
  return p;
}

/// Threads-invariance: the first successful fresh request of each verb,
/// re-evaluated serially, must give bit-identical cells.
void check_serial_identity(RequestStream& stream,
                           const std::map<std::size_t, Seen>& seen,
                           const Fixtures& fx, Result& r) {
  par::BatchOptions serial;
  serial.threads = 1;
  std::map<svc::Verb, bool> done;
  for (const auto& [i, s] : seen) {
    const svc::Request req = stream.at(i);
    if (!s.failure.empty() || done[req.verb]) continue;
    done[req.verb] = true;
    const Evaluated ev = evaluate(req, fx, serial);
    r.check(ev.cells == s.cells, std::string(verb_name(req.verb)) +
                                     " request " + std::to_string(i) +
                                     " differs between 1 and N threads");
  }
}

sweep::SweepCell timing_cell(const translate::CosimOutcome& out) {
  // The cell fields sweep::SweepRunner fills from one co-simulation.
  sweep::SweepCell c;
  c.iae = out.iae;
  c.ise = out.ise;
  c.itae = out.itae;
  c.cost = out.cost;
  c.overshoot_pct = out.step.overshoot_pct;
  c.act_latency_mean = out.act_latency.summary.mean;
  c.act_jitter = out.act_latency.jitter;
  c.stable = out.iae < 1e3;
  return c;
}

struct Replay {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::size_t cosims = 0;
  std::size_t cells = 0;
  std::map<std::string, double> runs_by_backend;
};

/// Fold the ledger record of the co-simulation that just ran (the replay
/// is serial, so it is the newest record).
void take_record(Replay& rp) {
  const std::vector<obs::LedgerRecord> recs = obs::Ledger::global().records();
  if (recs.empty()) return;
  rp.events += recs.back().events;
  rp.wall_s += recs.back().wall_s;
  ++rp.cosims;
  rp.runs_by_backend[recs.back().backend_used] += 1.0;
}

/// Layers without hooks of their own (translate, control) timed by calling
/// their public entry points on this run's own cells; every replayed cell
/// must reproduce the swept cell bit for bit.
void replay(RequestStream& stream, const std::map<std::size_t, Seen>& seen,
            const Fixtures& fx, Spans& spans, Replay& rp, Result& r) {
  std::size_t timing = 0, network = 0;
  for (const auto& [i, s] : seen) {
    if (!s.failure.empty()) continue;
    const svc::Request req = stream.at(i);
    const std::size_t cols = req.cols.size();
    for (std::size_t u = 0; u < s.cells.size(); ++u) {
      const double row = req.rows[u / cols];
      const double col = req.cols[u % cols];
      if (req.verb == svc::Verb::kSweepTiming && timing < kReplayCells) {
        ++timing;
        translate::CosimOutcome out;
        {
          Spans::Scope sp(spans, "translate", "translate.cosim.timing");
          out = translate::run_latency_loop(fx.servo, 0.0, row * fx.servo.ts,
                                            col * fx.servo.ts);
        }
        take_record(rp);
        ++rp.cells;
        sweep::SweepCell c = timing_cell(out);
        c.la_frac = row;
        c.jitter_frac = col;
        r.check(svc::encode_cell(c) == s.cells[u],
                "replayed timing cell differs from the swept cell");
      } else if (req.verb == svc::Verb::kSweepNetwork &&
                 network < kReplayCells) {
        ++network;
        const sweep::NetworkGrid& g = fx.network;
        const sweep::NetworkScenario sc = sweep::scenario_of_code(col);
        translate::DistributedSpec dist = g.dist;
        dist.arch = aaa::ArchitectureGraph::bus_architecture(
            g.processors, g.bus_bandwidth, g.bus_latency);
        const aaa::MediumId bus = dist.arch.find_medium("bus");
        if (sc == sweep::NetworkScenario::kCan) {
          dist.arch.set_can(bus, g.can_blocking);
        } else {
          dist.arch.set_tdma(bus, g.tdma_slot, g.tdma_slots);
        }
        if (row > 0.0) dist.arch.set_background_load(bus, row);
        sweep::NetworkCell c;
        c.bus_load = row;
        c.scenario = col;
        ++rp.cells;
        try {
          {
            Spans::Scope sp(spans, "translate", "translate.adequate");
            const aaa::AlgorithmGraph alg =
                translate::make_loop_algorithm(g.loop, dist);
            aaa::adequate(alg, dist.arch, dist.adequation);
          }
          translate::CosimOutcome nominal;
          {
            Spans::Scope sp(spans, "translate", "translate.cosim.network");
            nominal = translate::run_distributed_loop(g.loop, dist);
          }
          take_record(rp);
          c.act_latency_mean = nominal.act_latency.summary.mean;
          c.act_jitter = nominal.act_latency.jitter;
          c.nominal_iae = nominal.iae;
          c.nominal_cost = nominal.cost;
          control::DelayLqrResult aware;
          {
            Spans::Scope sp(spans, "control", "control.retune");
            aware = control::dlqr_with_input_delay(
                g.design_plant, g.loop.ts,
                std::clamp(c.act_latency_mean, 0.0, g.loop.ts),
                control::augment_q(g.q, g.r.rows()), g.r);
          }
          translate::LoopSpec retuned = g.loop;
          retuned.controller = control::delayed_feedback_controller(
              aware.k, aware.nbar, g.loop.ts);
          retuned.input = translate::ControllerInput::kStateRef;
          translate::CosimOutcome out;
          {
            Spans::Scope sp(spans, "translate", "translate.cosim.network");
            out = translate::run_distributed_loop(retuned, dist);
          }
          take_record(rp);
          c.retuned_iae = out.iae;
          c.retuned_cost = out.cost;
          c.stability_margin =
              1.0 - math::spectral_radius(aware.augmented.a -
                                          aware.augmented.b * aware.k);
          c.stable = out.iae < 1e3;
        } catch (const std::exception&) {
          c.schedulable = false;
          c.stable = false;
        }
        r.check(svc::encode_cell(c) == s.cells[u],
                "replayed network cell differs from the swept cell");
      }
    }
  }
}

/// One network cell (CAN, 40% load) at horizon `t_end`, serial: median
/// wall per cell over kHorizonReps.
double network_cell_s(double t_end) {
  sweep::NetworkGrid grid = sweep::network_servo_grid(0.01, t_end);
  grid.bus_loads = {0.4};
  grid.scenarios = {sweep::NetworkScenario::kCan};
  par::BatchOptions serial;
  serial.threads = 1;
  std::vector<double> walls;
  for (int k = 0; k < kHorizonReps; ++k) {
    const auto t0 = Clock::now();
    sweep::run_network_sweep(grid, serial);
    walls.push_back(seconds_since(t0));
  }
  return quantile(walls, 0.5);
}

}  // namespace

void run_explore(const Options& opts, Result& r) {
  SetupProbe probe([] { make_fixtures(); });
  const Fixtures fx = make_fixtures();
  RequestStream stream(opts.seed);
  const std::size_t n =
      ops_for(opts.seconds, kRequestsPerSecond, kMinRequests);
  std::map<std::size_t, Seen> seen;
  par::BatchOptions batch;
  batch.threads = explore_threads();
  std::printf("explore: %zu threads, interp backend, %.1f s horizon, loop "
              "model %s\n",
              batch.threads, fx.servo.t_end, fx.servo_ir_hash.c_str());
  Spans untraced(nullptr);

  if (!opts.trace) {
    const Pass p = run_pass(stream, n, kRounds, fx, batch, untraced, seen, r,
                            &probe);
    check_serial_identity(stream, seen, fx, r);
    report_end_to_end(r, p.log, probe.times(), peak_rss_mb(::getpid()));
    return;
  }

  // Traced run: an untraced round for the overhead baseline, then a traced
  // round over the same requests.
  const Pass base =
      run_pass(stream, n, 1, fx, batch, untraced, seen, r, nullptr);
  obs::Tracer tracer(1u << 18);
  tracer.set_enabled(true);
  Spans spans(&tracer);
  obs::MetricsRegistry mx;
  par::BatchOptions traced = batch;
  traced.metrics = &mx;
  std::map<std::size_t, Seen> seen_traced;
  const Pass p =
      run_pass(stream, n, 1, fx, traced, spans, seen_traced, r, nullptr);
  check_serial_identity(stream, seen_traced, fx, r);
  Replay rp;
  replay(stream, seen_traced, fx, spans, rp, r);
  const double cell_1s = network_cell_s(1.0);
  const double cell_02s = network_cell_s(0.2);
  const std::string trace_path = opts.out_dir + "/explore.trace.json";
  r.check(write_trace(tracer, trace_path), "cannot write " + trace_path);

  const auto& dur = spans.durations_ms();
  auto p50 = [&](const char* name) {
    const auto it = dur.find(name);
    return it == dur.end() ? 0.0 : quantile(it->second, 0.5);
  };
  auto mean = [&](const char* name) {
    const auto it = dur.find(name);
    if (it == dur.end() || it->second.empty()) return 0.0;
    double s = 0.0;
    for (const double d : it->second) s += d;
    return s / static_cast<double>(it->second.size());
  };
  const obs::Histogram& cell_us = mx.histogram("sweep.cell_wall_us");
  r.metric("translate.cosim_ms_p50.timing", p50("translate.cosim.timing"),
           "ms");
  r.metric("translate.cosim_ms_p50.network", p50("translate.cosim.network"),
           "ms");
  r.metric("translate.adequate_ms_per_cell", mean("translate.adequate"), "ms");
  r.metric("translate.network_cell_ms.h1s", cell_1s * 1e3, "ms");
  r.metric("translate.network_cell_ms.h0.2s", cell_02s * 1e3, "ms");
  r.metric("translate.network_sim_s_per_host_s.h1s", 2.0 * 1.0 / cell_1s,
           "s/s");
  r.metric("translate.network_sim_s_per_host_s.h0.2s", 2.0 * 0.2 / cell_02s,
           "s/s");
  r.metric("control.retune_ms_p50", p50("control.retune"), "ms");
  r.metric("sim.events_per_cell",
           rp.cells > 0 ? static_cast<double>(rp.events) /
                              static_cast<double>(rp.cells)
                        : 0.0,
           "count/cell");
  r.metric("sim.events_per_s",
           rp.wall_s > 0.0 ? static_cast<double>(rp.events) / rp.wall_s : 0.0,
           "events/s");
  r.metric("backend.interp.runs", rp.runs_by_backend["interp"], "count");
  r.metric("backend.native.runs", rp.runs_by_backend["native"], "count");
  r.metric("par.cell_ms_p50", cell_us.quantile(0.5) / 1e3, "ms");
  r.metric("par.cell_ms_p90", cell_us.quantile(0.9) / 1e3, "ms");
  r.metric("par.cell_ms_mean",
           cell_us.count() > 0
               ? cell_us.sum() / static_cast<double>(cell_us.count()) / 1e3
               : 0.0,
           "ms");
  r.metric("par.busy_share",
           cell_us.sum() / 1e6 /
               (p.wall_s * static_cast<double>(batch.threads)),
           "share");
  r.metric("par.cells_completed",
           static_cast<double>(mx.counter("sweep.cells_completed").value()),
           "count");
  r.metric("fault.messages_lost",
           p.fault_cells > 0 ? static_cast<double>(p.messages_lost) /
                                   static_cast<double>(p.fault_cells)
                             : 0.0,
           "count/cell");
  r.metric("fault.messages_deferred",
           p.fault_cells > 0 ? static_cast<double>(p.messages_deferred) /
                                   static_cast<double>(p.fault_cells)
                             : 0.0,
           "count/cell");
  r.metric("obs.trace_overhead_share",
           1.0 - (static_cast<double>(p.cells) / p.wall_s) /
                     (static_cast<double>(base.cells) / base.wall_s),
           "share");
}

}  // namespace lcb
