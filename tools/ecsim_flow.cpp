// ecsim_flow — command-line driver for the AAA flow on text specs:
//
//   ecsim_flow schedule  spec.txt   static schedule + makespan/utilization
//   ecsim_flow codegen   spec.txt   generated distributed executives (C-like)
//   ecsim_flow simulate  spec.txt   executive VM run: latencies + conformance
//   ecsim_flow validate  spec.txt   exit 0 iff schedulable within the period
//   ecsim_flow dot-alg   spec.txt   Graphviz DOT of the algorithm graph
//   ecsim_flow dot-arch  spec.txt   Graphviz DOT of the architecture
//   ecsim_flow dot-gantt spec.txt   Graphviz DOT of the schedule
//
// Parallel design-space exploration (src/par, DESIGN.md §3.3):
//   ecsim_flow sweep timing|arch    latency×jitter (or bus×WCET) grid over
//                                   the standard DC-servo loop, evaluated on
//                                   the work-stealing pool; prints a
//                                   control-cost heatmap (arch cells whose
//                                   schedule overruns the period print
//                                   n/a). Results are bit-identical for any
//                                   --threads.
//   ecsim_flow sweep network        bus-load × scenario (CAN | TDMA) grid:
//                                   each cell measures the actuation-latency
//                                   distribution the arbitrated bus delivers,
//                                   retunes the LQR against it and reports
//                                   the stability margin of the delay-aware
//                                   design (EXP-N1). Bit-identical for any
//                                   --threads and via --connect.
//   ecsim_flow montecarlo spec.txt  Monte Carlo execution-time trials of the
//                                   spec's schedule on the executive VM:
//                                   per-operation latency/jitter
//                                   distributions across decorrelated
//                                   random-execution-time draws.
//
// Robustness evaluation (src/fault, DESIGN.md §3.5):
//   ecsim_flow fault sweep          loss-rate × delivery-delay grid over the
//                                   standard DC-servo loop with deterministic
//                                   fault injection; prints a control-cost
//                                   heatmap plus loss accounting. Same seed
//                                   => bit-identical for any --threads.
//   ecsim_flow fault montecarlo     dropout study: --trials runs at
//                                   --loss=RATE, each trial re-seeding the
//                                   fault stream; prints the cost/IAE
//                                   distribution.
// Extra flags: --threads=N (0 = hardware), sweep/fault: --csv-out=FILE,
// montecarlo: --trials=N --iterations=N --seed=N, fault: --loss=RATE.
//
// Sweep service (src/svc, DESIGN.md §3.9):
//   ecsim_flow serve --socket=PATH  daemon with warm models, a memoized
//                                   result cache and forked workers.
//   --connect=SOCKET (sweep, fault, montecarlo)
//                                   serve the command through the daemon;
//                                   falls back in-process, printing why,
//                                   when it cannot. One helper
//                                   (ask_daemon) does this for every
//                                   command; the daemon side of each work
//                                   verb is one entry of the WorkVerb table
//                                   in svc/work_verb.cpp, and the local run
//                                   is the svc::run_* function a daemon
//                                   unit runs.
//
// Observability flags (any command, order-free after the spec):
//   --trace-out=FILE    Chrome trace-event / Perfetto JSON: the adequation
//                       schedule as a proc/medium Gantt, executive-VM runs
//                       (simulate: "wcet/..." and "actual/..." tracks), and
//                       the wall-clock runtime spans of the flow itself.
//                       Load via https://ui.perfetto.dev or chrome://tracing.
//   --metrics-out=FILE  obs::MetricsRegistry snapshot; .csv extension
//                       selects CSV, anything else JSON.
//
// Model IR + execution backend (src/ir, src/backend, DESIGN.md §3.6):
//   ecsim_flow ir dump --example=servo     canonical IR text of a built-in
//                                          example model (servo|chains200) —
//                                          the committed tests/ir/*.ir goldens
//                                          are regenerated from this output.
//   ecsim_flow ir hash --example=servo     its 64-bit FNV-1a hash (0x....),
//                                          the key benches stamp into
//                                          BENCH_*.json.
//   --backend=interp|native (sweep/fault)  execute the co-simulated loops
//                                          through the chosen backend; native
//                                          falls back to the interpreter with
//                                          a recorded reason when ineligible
//                                          (printed, with the model IR hash,
//                                          after the run).
//
// Run ledger (src/obs/ledger.hpp, DESIGN.md §3.7). Every backend::run
// appends one JSONL record to the file named by ECSIM_LEDGER (in-memory
// only when unset):
//   ecsim_flow ledger show                 print the records of a ledger file
//                                          (--ledger=FILE, default
//                                          $ECSIM_LEDGER).
//   ecsim_flow ledger diff                 compare the newest record whose IR
//                                          hash matches the committed
//                                          --bench=FILE (default
//                                          BENCH_p6.json) --scenario=NAME
//                                          (default chains_200) figure; exits
//                                          1 when events/s dropped more than
//                                          --threshold=PCT (default 10)
//                                          below it, 2 when nothing compares.
//
// The spec format is documented in src/io/spec.hpp; see
// examples/specs/*.spec for ready-to-run inputs.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "aaa/adequation.hpp"
#include "backend/kind.hpp"
#include "blocks/examples.hpp"
#include "ir/ir.hpp"
#include "sim/build_ir.hpp"
#include "aaa/codegen.hpp"
#include "exec/conformance.hpp"
#include "io/dot.hpp"
#include "io/spec.hpp"
#include "latency/latency.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_json.hpp"
#include "obs/tracer.hpp"
#include "par/fault_sweep.hpp"
#include "par/monte_carlo.hpp"
#include "par/network_sweep.hpp"
#include "par/sweep.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/work_verb.hpp"
#include "translate/schedule_export.hpp"

using namespace ecsim;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ecsim_flow <schedule|codegen|simulate|validate|"
               "dot-alg|dot-arch|dot-gantt> <spec-file>\n"
               "                  [--trace-out=FILE] [--metrics-out=FILE]\n"
               "       ecsim_flow sweep <timing|arch|network> [--threads=N] "
               "[--csv-out=FILE] [--backend=interp|native] "
               "[--connect=SOCKET]\n"
               "       ecsim_flow montecarlo <spec-file> [--threads=N] "
               "[--trials=N] [--iterations=N] [--seed=N] [--batch=W] "
               "[--connect=SOCKET]\n"
               "       ecsim_flow fault <sweep|montecarlo> [--threads=N] "
               "[--csv-out=FILE] [--loss=RATE] [--trials=N] [--seed=N] "
               "[--batch=W] [--backend=interp|native] [--connect=SOCKET]\n"
               "       ecsim_flow serve --socket=PATH [--workers=N] "
               "[--cache-mb=M] [--ledger=FILE] [--verbose]\n"
               "       ecsim_flow ir <dump|hash> [--example=servo|chains200]\n"
               "       ecsim_flow ledger <show|diff> [--ledger=FILE] "
               "[--bench=FILE] [--scenario=NAME] [--threshold=PCT] "
               "[--cache]\n");
  return 2;
}

struct Flow {
  io::ParsedSpec spec;
  aaa::Schedule sched{0, 0};
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  Flow(const std::string& path, obs::Tracer* tr, obs::MetricsRegistry* mx)
      : spec(io::load_spec(path)), tracer(tr), metrics(mx) {
    if (!spec.has_algorithm) {
      throw std::runtime_error("spec has no [algorithm] section");
    }
    if (!spec.has_architecture) {
      throw std::runtime_error("spec has no [architecture] section");
    }
    aaa::AdequationOptions opts;
    opts.tracer = tracer;
    opts.metrics = metrics;
    sched = aaa::adequate(spec.algorithm, spec.architecture, opts);
    sched.validate(spec.algorithm, spec.architecture);
  }
};

int cmd_schedule(const Flow& f) {
  std::printf("%s", f.sched.to_string(f.spec.algorithm, f.spec.architecture)
                        .c_str());
  const double period = f.spec.algorithm.period();
  if (period > 0.0) {
    std::printf("period %.6g, utilization %.1f%%%s\n", period,
                100.0 * f.sched.makespan() / period,
                f.sched.makespan() > period ? "  ** OVER PERIOD **" : "");
  }
  return 0;
}

int cmd_codegen(const Flow& f) {
  const aaa::GeneratedCode code =
      aaa::generate_executives(f.spec.algorithm, f.spec.architecture, f.sched);
  std::printf("%s", code.source.c_str());
  return 0;
}

int cmd_simulate(const Flow& f) {
  const aaa::GeneratedCode code =
      aaa::generate_executives(f.spec.algorithm, f.spec.architecture, f.sched);
  const double period = f.spec.algorithm.period() > 0.0
                            ? f.spec.algorithm.period()
                            : f.sched.makespan();
  exec::VmOptions opts;
  opts.iterations = 50;
  opts.period = period;
  opts.branch_chooser = exec::worst_case_branch_chooser();
  opts.tracer = f.tracer;
  opts.metrics = f.metrics;
  opts.track_prefix = "wcet/";
  const exec::VmResult wcet_run = exec::run_executives(
      f.spec.algorithm, f.spec.architecture, f.sched, code, opts);
  const exec::ConformanceReport conf = exec::check_wcet_conformance(
      f.spec.algorithm, f.spec.architecture, f.sched, wcet_run, period);
  std::printf("WCET run: deadlock=%s conformance=%s (max error %.2e)\n",
              wcet_run.deadlock ? "YES" : "no", conf.ok ? "exact" : "VIOLATED",
              conf.max_time_error);

  exec::VmOptions rnd = opts;
  rnd.exec_time = exec::uniform_fraction_exec_time(0.5);
  rnd.branch_chooser = exec::uniform_branch_chooser();
  rnd.track_prefix = "actual/";
  const exec::VmResult rnd_run = exec::run_executives(
      f.spec.algorithm, f.spec.architecture, f.sched, code, rnd);
  std::printf("random-times run: deadlock=%s, order preserved=%s\n",
              rnd_run.deadlock ? "YES" : "no",
              exec::check_order_preservation(f.spec.algorithm,
                                             f.spec.architecture, f.sched,
                                             rnd_run)
                      .ok
                  ? "yes"
                  : "NO");
  for (aaa::OpId op = 0; op < f.spec.algorithm.num_operations(); ++op) {
    const aaa::Operation& o = f.spec.algorithm.op(op);
    if (o.kind == aaa::OpKind::kCompute) continue;
    const auto series = latency::analyze_instants(
        o.name, rnd_run.completions(op), period);
    std::printf("%-12s %s latency: mean=%.6f max=%.6f jitter=%.6f\n",
                o.name.c_str(),
                o.kind == aaa::OpKind::kSensor ? "sampling " : "actuation",
                series.summary.mean, series.summary.max, series.jitter);
  }
  return 0;
}

int cmd_validate(const Flow& f) {
  const double period = f.spec.algorithm.period();
  if (period > 0.0 && f.sched.makespan() > period) {
    std::printf("INVALID: makespan %.6g exceeds period %.6g\n",
                f.sched.makespan(), period);
    return 1;
  }
  std::printf("OK: makespan %.6g within period %.6g\n", f.sched.makespan(),
              period);
  return 0;
}

/// Parse a number-flag value; false (leaving `v` as is) unless all of `s`
/// is a number of `v`'s type.
template <class T>
bool number(const std::string& s, T& v) {
  T parsed{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), parsed);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  v = parsed;
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool write_file(const std::string& path, const std::string& doc) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) return false;
  std::fputs(doc.c_str(), fp);
  std::fclose(fp);
  return true;
}

/// `ir dump|hash`: the canonical IR of a built-in example model — the
/// anchor for the committed golden files and for hash provenance in bench
/// reports (same bytes, same hash, in any build of any PR).
int cmd_ir(const std::string& sub, const std::string& example) {
  ir::Model irm;
  if (example == "servo") {
    sim::Model m = blocks::examples::make_servo();
    irm = sim::build_ir(m, "servo");
  } else if (example == "chains200") {
    sim::Model m = blocks::examples::make_chains(200);
    irm = sim::build_ir(m, "chains_200");
  } else {
    std::fprintf(stderr,
                 "ecsim_flow: unknown --example '%s' (servo|chains200)\n",
                 example.c_str());
    return 2;
  }
  if (sub == "dump") {
    std::printf("%s", ir::serialize(irm).c_str());
  } else if (sub == "hash") {
    std::printf("%s\n", ir::hash_hex(irm).c_str());
  } else {
    return usage();
  }
  return 0;
}

/// `ledger show|diff` (DESIGN.md §3.7). The ledger file comes from
/// --ledger=FILE, falling back to $ECSIM_LEDGER.
int cmd_ledger(const std::string& sub, std::string ledger_path,
               const std::string& bench_path, const std::string& scenario,
               double threshold_pct, bool show_cache) {
  if (ledger_path.empty()) {
    const char* env = std::getenv("ECSIM_LEDGER");
    if (env != nullptr) ledger_path = env;
  }
  if (ledger_path.empty()) {
    std::fprintf(stderr,
                 "ecsim_flow ledger: no ledger file (pass --ledger=FILE or "
                 "set ECSIM_LEDGER)\n");
    return 2;
  }
  const std::vector<obs::LedgerRecord> records =
      obs::read_ledger_file(ledger_path);
  if (sub == "show") {
    std::printf("%-16s %-18s %-7s %-22s %8s %12s %14s%s\n", "model",
                "ir_hash", "backend", "fallback", "threads", "events",
                "events/s", show_cache ? "  cache" : "");
    for (const obs::LedgerRecord& r : records) {
      const std::string backend = r.backend_used == r.backend_requested
                                      ? r.backend_used
                                      : r.backend_requested + ">" +
                                            r.backend_used;
      std::string fallback = r.fallback_reason.substr(
          0, r.fallback_reason.find(':'));
      if (fallback.empty()) fallback = "-";
      std::printf("%-16s %-18s %-7s %-22s %8u %12llu %14.6g",
                  (r.model.empty() ? "-" : r.model).c_str(),
                  (r.ir_hash.empty() ? "-" : r.ir_hash).c_str(),
                  backend.c_str(), fallback.c_str(), r.threads,
                  static_cast<unsigned long long>(r.events), r.events_per_s);
      if (show_cache) {
        // Schema v3 column; pre-v3 lines and non-service runs are untagged.
        std::printf("  %s", r.served_from_cache < 0
                                ? "-"
                                : (r.served_from_cache > 0 ? "hit" : "miss"));
      }
      std::printf("\n");
    }
    if (show_cache) {
      const obs::CacheSummary s = obs::summarize_cache(records);
      std::printf("cache: %zu served / %zu computed (hit rate %.1f%%), "
                  "%zu untagged\n",
                  s.served, s.computed, 100.0 * s.hit_rate(), s.untagged);
    }
    std::printf("%zu record(s) in %s\n", records.size(), ledger_path.c_str());
    return 0;
  }
  if (sub == "diff") {
    std::ifstream in(bench_path);
    if (!in) {
      std::fprintf(stderr, "ecsim_flow ledger diff: cannot read %s\n",
                   bench_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const obs::LedgerDiff d = obs::diff_latest_against_bench(
        records, ss.str(), scenario, threshold_pct);
    std::printf("%s\n", d.message.c_str());
    if (!d.comparable) return 2;
    return d.regression ? 1 : 0;
  }
  return usage();
}

/// Post-run telemetry shared by the sweep-style commands: per-cell progress
/// and latency quantiles from the shared registry, and — when the native
/// backend was requested — how the backend request resolved (used backend,
/// fallback reason, model IR hash), read from the most recent ledger record.
void print_sweep_telemetry(obs::MetricsRegistry& reg, backend::Kind bk) {
  obs::Histogram& wall = reg.histogram("sweep.cell_wall_us");
  if (wall.count() > 0) {
    std::printf("cell wall time: p50=%.3gms p99=%.3gms (n=%llu)\n",
                wall.quantile(0.5) / 1e3, wall.quantile(0.99) / 1e3,
                static_cast<unsigned long long>(wall.count()));
  }
  if (bk == backend::Kind::kNative) {
    const std::vector<obs::LedgerRecord> recs =
        obs::Ledger::global().records();
    if (!recs.empty()) {
      const obs::LedgerRecord& r = recs.back();
      std::printf("backend: requested=%s used=%s ir_hash=%s\n",
                  r.backend_requested.c_str(), r.backend_used.c_str(),
                  (r.ir_hash.empty() ? "-" : r.ir_hash).c_str());
      if (!r.fallback_reason.empty()) {
        std::printf("backend fallback: %s\n", r.fallback_reason.c_str());
      }
    }
  }
}

/// Report how a --connect request resolved; a fallback prints the recorded
/// reason so scripted runs can tell daemon-served from in-process results.
void print_daemon_meta(const svc::ResponseMeta& meta) {
  std::printf("daemon: %zu/%zu units from cache%s, model %s%s\n",
              meta.cache_hits, meta.cache_units,
              meta.served_from_cache ? " (fully served)" : "",
              meta.model_hash.c_str(),
              meta.redispatches > 0 ? " [worker re-dispatch]" : "");
}

/// The --connect path of every daemon-capable command: ask the daemon at
/// `connect` for `req`, decoded into `out` by `remote`. False when no daemon
/// was named, or (printing the reason) when it could not serve; the caller
/// then computes `out` in-process.
template <class Out, class Remote>
bool ask_daemon(const std::string& connect, const svc::Request& req,
                Remote remote, Out& out, svc::ResponseMeta& meta) {
  if (connect.empty()) return false;
  svc::Client client;
  if (client.connect(connect) && remote(client, req, out, meta)) return true;
  std::fprintf(stderr, "svc: falling back in-process: %s\n",
               client.last_error().c_str());
  return false;
}

svc::Request work_request(svc::Verb verb, backend::Kind bk) {
  svc::Request req;
  req.verb = verb;
  req.backend = std::string(backend::to_string(bk));
  return req;
}

void print_cell_count(std::size_t cells, bool remote,
                      const std::string& connect,
                      const par::BatchOptions& batch) {
  if (remote) {
    std::printf("%zu cells via daemon %s\n", cells, connect.c_str());
  } else {
    std::printf("%zu cells on %zu worker(s)\n", cells,
                par::BatchRunner(batch).threads());
  }
}

/// The tail every daemon-capable command shares: the daemon's cache report
/// or the local run's telemetry, then the optional CSV of the cells.
template <class Cells>
int finish(bool remote, const svc::ResponseMeta& meta,
           obs::MetricsRegistry& reg, backend::Kind bk,
           const std::string& csv_out, const Cells& cells) {
  if (remote) {
    print_daemon_meta(meta);
  } else {
    print_sweep_telemetry(reg, bk);
  }
  if (csv_out.empty()) return 0;
  if (!write_file(csv_out, sweep::to_csv(cells))) {
    std::fprintf(stderr, "ecsim_flow: cannot write %s\n", csv_out.c_str());
    return 1;
  }
  std::fprintf(stderr, "csv: %s\n", csv_out.c_str());
  return 0;
}

int cmd_sweep(const std::string& kind, std::size_t threads,
              const std::string& csv_out, backend::Kind bk,
              const std::string& connect) {
  obs::MetricsRegistry reg;
  par::BatchOptions batch;
  batch.threads = threads;
  batch.metrics = &reg;
  svc::ResponseMeta meta;
  translate::LoopSpec loop = sweep::servo_loop();
  loop.backend = bk;
  if (kind == "network") {
    // The EXP-N1 stability-vs-bus-load frontier: CAN and TDMA scenario
    // columns over background-load rows, each cell retuning the LQR against
    // the latency distribution the simulated bus actually delivered.
    const sweep::NetworkGrid grid = sweep::network_servo_grid();
    svc::Request req = work_request(svc::Verb::kSweepNetwork, bk);
    req.rows = grid.bus_loads;
    for (const sweep::NetworkScenario s : grid.scenarios) {
      req.cols.push_back(sweep::scenario_code(s));
    }
    std::vector<sweep::NetworkCell> cells;
    const bool remote = ask_daemon(
        connect, req, svc::remote_cells<sweep::NetworkCell>, cells, meta);
    if (!remote) cells = svc::run_network(req, loop, batch);
    print_cell_count(cells.size(), remote, connect, batch);
    std::printf("columns: 0 = can (priority arbitration), 1 = tdma (owner "
                "slots)\n%s%s",
                sweep::heatmap(cells, req.rows, req.cols, "bus load",
                               "scenario",
                               &sweep::NetworkCell::stability_margin,
                               "delay-aware stability margin (1 - spectral "
                               "radius)")
                    .c_str(),
                sweep::heatmap(cells, req.rows, req.cols, "bus load",
                               "scenario", &sweep::NetworkCell::retuned_iae,
                               "retuned IAE")
                    .c_str());
    return finish(remote, meta, reg, bk, csv_out, cells);
  }
  const bool timing = kind == "timing";
  if (!timing && kind != "arch") return usage();
  svc::Request req = work_request(
      timing ? svc::Verb::kSweepTiming : svc::Verb::kSweepArch, bk);
  // The CLI's canonical grids — the daemon caches cells of exactly these
  // coordinates, so repeat invocations are fully served from cache.
  req.rows = timing ? std::vector<double>{0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95}
                    : std::vector<double>{1e5, 1e4, 4e3, 2e3, 1e3};
  req.cols = timing ? std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.5}
                    : std::vector<double>{0.5, 1.0, 2.0, 4.0};
  std::vector<sweep::SweepCell> cells;
  const bool remote = ask_daemon(
      connect, req, svc::remote_cells<sweep::SweepCell>, cells, meta);
  if (!remote) {
    cells = timing ? svc::run_timing(req, loop, batch)
                   : svc::run_arch(req, loop, batch);
  }
  print_cell_count(cells.size(), remote, connect, batch);
  std::printf("%s", sweep::heatmap(cells, req.rows, req.cols,
                                   timing ? "La/Ts" : "bus bw",
                                   timing ? "jitter/Ts" : "WCET scale",
                                   &sweep::SweepCell::cost,
                                   "control cost (time-averaged quadratic)")
                        .c_str());
  return finish(remote, meta, reg, bk, csv_out, cells);
}

int cmd_fault(const std::string& kind, std::size_t threads,
              const std::string& csv_out, double loss, std::size_t trials,
              std::uint64_t seed, std::size_t batch_width, backend::Kind bk,
              const std::string& connect) {
  obs::MetricsRegistry reg;
  par::BatchOptions batch;
  batch.threads = threads;
  batch.metrics = &reg;
  svc::ResponseMeta meta;
  translate::LoopSpec loop = sweep::servo_loop();
  loop.backend = bk;
  if (kind == "sweep") {
    svc::Request req = work_request(svc::Verb::kFaultSweep, bk);
    req.rows = {0.0, 0.05, 0.1, 0.2, 0.4};     // loss rates
    req.cols = {0.0, 0.001, 0.002, 0.004};  // delivery delays (s)
    req.seed = seed;
    std::vector<sweep::FaultCell> cells;
    const bool remote = ask_daemon(
        connect, req, svc::remote_cells<sweep::FaultCell>, cells, meta);
    if (!remote) cells = svc::run_fault_sweep(req, loop, batch);
    std::size_t lost = 0, deferred = 0;
    for (const sweep::FaultCell& c : cells) {
      lost += c.messages_lost;
      deferred += c.messages_deferred;
    }
    std::printf("%zu cells (seed %llu)\n%s%zu frames lost, %zu deferred "
                "across the grid\n",
                cells.size(), static_cast<unsigned long long>(seed),
                sweep::heatmap(cells, req.rows, req.cols, "loss rate",
                               "delay (s)", &sweep::FaultCell::cost,
                               "control cost under message faults")
                    .c_str(),
                lost, deferred);
    return finish(remote, meta, reg, bk, csv_out, cells);
  }
  if (kind == "montecarlo") {
    svc::Request req = work_request(svc::Verb::kFaultMc, bk);
    req.loss = loss;
    req.trials = trials;
    req.seed = seed;
    sweep::FaultMonteCarloResult result;
    const bool remote =
        ask_daemon(connect, req, svc::remote_fault_mc, result, meta);
    if (!remote) {
      // batch_width 0 = auto (the SIMD-preferred width)
      result = svc::run_fault_mc(req, loop, batch, batch_width);
    }
    std::printf("%s", sweep::to_string(result).c_str());
    if (!remote) {
      std::printf("batch width %zu, 0 evictions, %.4g trials/s (%.3g s)\n",
                  result.batch_width, result.trials_per_s, result.wall_s);
    }
    return finish(remote, meta, reg, bk, csv_out, result.cells);
  }
  return usage();
}

/// VM Monte Carlo through the daemon. Returns the exit code, or -1 when the
/// daemon could not serve (the caller falls back to the in-process Flow
/// path, which re-reads and re-adequates the spec itself).
int try_remote_montecarlo(const std::string& spec_path,
                          const std::string& connect, std::size_t trials,
                          std::size_t iterations, std::uint64_t seed) {
  std::ifstream in(spec_path);
  if (!in) return -1;
  std::ostringstream ss;
  ss << in.rdbuf();
  svc::Request req;
  req.verb = svc::Verb::kVmMc;
  req.trials = trials;
  req.iterations = iterations;
  req.seed = seed;
  req.spec_text = ss.str();
  sweep::MonteCarloResult result;
  svc::ResponseMeta meta;
  if (!ask_daemon(connect, req, svc::remote_vm_mc, result, meta)) return -1;
  std::printf("%s", sweep::to_string(result).c_str());
  print_daemon_meta(meta);
  return result.deadlocks == 0 ? 0 : 1;
}

int cmd_montecarlo(const Flow& f, std::size_t threads, std::size_t trials,
                   std::size_t iterations, std::uint64_t seed,
                   std::size_t batch_width) {
  const aaa::GeneratedCode code =
      aaa::generate_executives(f.spec.algorithm, f.spec.architecture, f.sched);
  sweep::MonteCarloSpec spec;
  spec.trials = trials;
  spec.iterations = iterations;
  spec.batch_width = batch_width;  // 0 = auto (SIMD-preferred width)
  par::BatchOptions batch;
  batch.threads = threads;
  batch.seed = seed;
  batch.tracer = f.tracer;
  batch.metrics = f.metrics;
  const sweep::MonteCarloResult result = sweep::run_monte_carlo(
      f.spec.algorithm, f.spec.architecture, f.sched, code, spec, batch);
  std::printf("%s", sweep::to_string(result).c_str());
  // VM trials execute on the scalar executive, so no lane is ever evicted;
  // the count is printed for parity with the simulator-level batched MC.
  std::printf("batch width %zu, 0 evictions, %.4g trials/s (%.3g s)\n",
              result.batch_width, result.trials_per_s, result.wall_s);
  return result.deadlocks == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string spec_path = argv[2];
  if (command == "serve") {
    svc::ServeOptions sopts;
    bool numbers_ok = true;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--socket=", 0) == 0) {
        sopts.socket_path = arg.substr(9);
      } else if (arg.rfind("--workers=", 0) == 0) {
        numbers_ok &= number(arg.substr(10), sopts.workers);
      } else if (arg.rfind("--cache-mb=", 0) == 0) {
        numbers_ok &= number(arg.substr(11), sopts.cache_mb);
      } else if (arg.rfind("--ledger=", 0) == 0) {
        sopts.ledger_path = arg.substr(9);
      } else if (arg == "--verbose") {
        sopts.verbose = true;
      } else {
        return usage();
      }
    }
    if (!numbers_ok) return usage();
    try {
      return svc::run_server(sopts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ecsim_flow serve: %s\n", e.what());
      return 1;
    }
  }
  std::string trace_out, metrics_out, csv_out, connect;
  std::string example = "servo";
  std::string ledger_file, bench_file = "BENCH_p6.json";
  std::string scenario = "chains_200";
  bool show_cache = false;
  double threshold_pct = 10.0;
  backend::Kind bk = backend::Kind::kInterp;
  std::size_t threads = 0, iterations = 50;
  std::optional<std::size_t> trials;  // default depends on the command
  std::size_t batch_width = 0;  // trials per task; 0 = auto (SIMD width)
  std::uint64_t seed = 1;
  double loss = 0.1;
  bool numbers_ok = true;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg.rfind("--csv-out=", 0) == 0) {
      csv_out = arg.substr(10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      numbers_ok &= number(arg.substr(10), threads);
    } else if (arg.rfind("--trials=", 0) == 0) {
      numbers_ok &= number(arg.substr(9), trials.emplace());
    } else if (arg.rfind("--batch=", 0) == 0) {
      numbers_ok &= number(arg.substr(8), batch_width);
    } else if (arg.rfind("--iterations=", 0) == 0) {
      numbers_ok &= number(arg.substr(13), iterations);
    } else if (arg.rfind("--seed=", 0) == 0) {
      numbers_ok &= number(arg.substr(7), seed);
    } else if (arg.rfind("--loss=", 0) == 0) {
      numbers_ok &= number(arg.substr(7), loss);
    } else if (arg.rfind("--example=", 0) == 0) {
      example = arg.substr(10);
    } else if (arg.rfind("--ledger=", 0) == 0) {
      ledger_file = arg.substr(9);
    } else if (arg.rfind("--bench=", 0) == 0) {
      bench_file = arg.substr(8);
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario = arg.substr(11);
    } else if (arg.rfind("--threshold=", 0) == 0) {
      numbers_ok &= number(arg.substr(12), threshold_pct);
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg == "--cache") {
      show_cache = true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      try {
        bk = backend::parse_kind(arg.substr(10));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ecsim_flow: %s\n", e.what());
        return 2;
      }
    } else {
      return usage();
    }
  }
  if (!numbers_ok) return usage();

  try {
    if (command == "ir") return cmd_ir(spec_path, example);
    if (command == "ledger") {
      return cmd_ledger(spec_path, ledger_file, bench_file, scenario,
                        threshold_pct, show_cache);
    }
    if (command == "sweep") {
      return cmd_sweep(spec_path, threads, csv_out, bk, connect);
    }
    if (command == "fault") {
      // A full co-simulation per trial: 32 trials unless asked otherwise.
      return cmd_fault(spec_path, threads, csv_out, loss, trials.value_or(32),
                       seed, batch_width, bk, connect);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecsim_flow: %s\n", e.what());
    return 1;
  }

  if (command == "montecarlo" && !connect.empty()) {
    const int rc =
        try_remote_montecarlo(spec_path, connect, trials.value_or(200),
                              iterations, seed);
    if (rc >= 0) return rc;
  }

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  tracer.set_enabled(!trace_out.empty());
  obs::Tracer* tr = trace_out.empty() ? nullptr : &tracer;
  obs::MetricsRegistry* mx = metrics_out.empty() ? nullptr : &metrics;

  try {
    const Flow flow(spec_path, tr, mx);
    int rc;
    if (command == "schedule") {
      rc = cmd_schedule(flow);
    } else if (command == "codegen") {
      rc = cmd_codegen(flow);
    } else if (command == "simulate") {
      rc = cmd_simulate(flow);
    } else if (command == "validate") {
      rc = cmd_validate(flow);
    } else if (command == "dot-alg") {
      std::printf("%s", io::to_dot(flow.spec.algorithm).c_str());
      rc = 0;
    } else if (command == "dot-arch") {
      std::printf("%s", io::to_dot(flow.spec.architecture).c_str());
      rc = 0;
    } else if (command == "dot-gantt") {
      std::printf("%s", io::schedule_to_dot(flow.spec.algorithm,
                                            flow.spec.architecture, flow.sched)
                            .c_str());
      rc = 0;
    } else if (command == "montecarlo") {
      rc = cmd_montecarlo(flow, threads, trials.value_or(200), iterations,
                          seed, batch_width);
    } else {
      return usage();
    }

    if (!trace_out.empty()) {
      obs::JsonTraceWriter w;
      // The static schedule Gantt (paper Figs. 3-4) plus whatever the run
      // recorded live (adequation span, VM op/comm instances).
      w.add_slices(translate::schedule_to_timeline(
          flow.spec.algorithm, flow.spec.architecture, flow.sched));
      w.add(tracer);
      if (!w.write(trace_out)) {
        std::fprintf(stderr, "ecsim_flow: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace: %s (%zu records)\n", trace_out.c_str(),
                   w.num_events());
    }
    if (!metrics_out.empty()) {
      if (!write_file(metrics_out, ends_with(metrics_out, ".csv")
                                       ? metrics.to_csv()
                                       : metrics.to_json())) {
        std::fprintf(stderr, "ecsim_flow: cannot write %s\n",
                     metrics_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "metrics: %s\n", metrics_out.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecsim_flow: %s\n", e.what());
    return 1;
  }
}
