// montecarlo: simulator-level Monte Carlo throughput, one thread. One op is
// one trial, drawn in a fixed mix from three streams per round:
//   - run_sim_monte_carlo at auto width on servo_rk4 (integration-bound);
//   - the same on chains_200 (event-bound);
//   - servo_rk4 trials through backend::run on the native backend, one
//     seed per trial.
// The native module is compiled once into a private cache by a helper
// process before any timing, so set-up pays only its dlopen.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "backend/backend.hpp"
#include "blocks/examples.hpp"
#include "obs/metrics.hpp"
#include "par/sim_monte_carlo.hpp"
#include "par/sweep.hpp"
#include "sim/trace.hpp"

#include "common.hpp"

using namespace ecsim;

namespace lcb {
namespace {

constexpr std::size_t kServoTrials = 8;    // per servo_rk4 MC call
constexpr std::size_t kChainsTrials = 8;   // per chains_200 MC call
constexpr std::size_t kNativeTrials = 4;   // native servo_rk4 runs per round
constexpr std::size_t kCheckedRounds = 2;  // rounds re-run at width 1
constexpr std::size_t kCheckedNative = 4;  // native runs re-run on interp
// Rounds of the mix per second of run time: kRoundsPerSecond rounds take
// about one second on a 4-vCPU x86-64 host. Round k draws its trials
// from batch seed k % kBatchSeeds, so every input recurs in a run.
constexpr double kRoundsPerSecond = 8.5;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kBatchSeeds = 8;

struct Streams {
  sweep::SimMonteCarloSpec servo;
  sweep::SimMonteCarloSpec chains;
  sim::BatchedSim::ModelFactory servo_factory;
  sim::BatchedSim::ModelFactory chains_factory;
  std::unique_ptr<sim::Model> native_model;  // servo_rk4, reused per run
};

sim::SimOptions servo_options() {
  sim::SimOptions o;
  o.end_time = 1.0;
  o.integrator.kind = sim::IntegratorKind::kRk4;
  o.integrator.max_step = 2e-4;
  return o;
}

Streams make_streams() {
  Streams s;
  s.servo.trials = kServoTrials;
  s.servo.sim = servo_options();
  s.servo.batch_width = 0;  // auto
  s.chains.trials = kChainsTrials;
  s.chains.sim.end_time = 0.25;
  s.chains.sim.reserve_queue = 1024;
  s.chains.batch_width = 0;
  s.servo_factory = [] {
    return std::make_unique<sim::Model>(blocks::examples::make_servo());
  };
  s.chains_factory = [] {
    return std::make_unique<sim::Model>(blocks::examples::make_chains(200));
  };
  s.native_model =
      std::make_unique<sim::Model>(blocks::examples::make_servo());
  return s;
}

backend::RunOptions native_options(std::uint64_t seed,
                                   obs::MetricsRegistry* mx) {
  backend::RunOptions ro;
  ro.sim = servo_options();
  ro.sim.seed = seed;
  ro.kind = backend::Kind::kNative;
  ro.metrics = mx;
  ro.model_name = "servo_rk4";
  return ro;
}

/// Compile the servo_rk4 native module into the (private) cache from a
/// helper process, so this process's first native run is a plain dlopen.
/// Returns the helper's wall time; throws when it fails.
double warm_native_cache() {
  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 1;
    try {
      sim::Model m = blocks::examples::make_servo();
      backend::RunOptions ro = native_options(1, nullptr);
      ro.sim.end_time = 0.01;
      rc = backend::run(m, ro).used == backend::Kind::kNative ? 0 : 3;
    } catch (...) {
      rc = 2;
    }
    ::_exit(rc);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("native module warm-up failed (status " +
                             std::to_string(status) + ")");
  }
  return seconds_since(t0);
}

struct Pass {
  std::size_t trials = 0;
  double wall_s = 0.0;
  OpLog log;
  std::uint64_t events = 0;
  std::size_t evictions = 0;
  std::size_t servo_width = 0, chains_width = 0;  // auto batch widths
  double servo_s = 0.0, chains_s = 0.0, native_s = 0.0;
  std::size_t servo_n = 0, chains_n = 0, native_n = 0;
};

/// Run `rounds` rounds of the mix; round k draws its trials from a batch
/// seed made of `seed` and k % kBatchSeeds. `probe` (may be null) samples
/// set-up between rounds.
Pass run_pass(Streams& st, std::uint64_t seed, std::size_t rounds,
              Spans& spans, obs::MetricsRegistry* mx, Result& r,
              SetupProbe* probe) {
  Pass p;
  // `input`: the stream (0 servo_rk4 MC, 1 chains_200 MC, 2 native
  // servo_rk4) and the batch seed.
  auto account = [&](std::size_t input, std::size_t n, double dt,
                     double horizon) {
    p.trials += n;
    p.wall_s += dt;
    p.log.add(input, dt, static_cast<double>(n),
              static_cast<double>(n) * horizon, n);
    r.attempted += n;
  };
  CpuRotor rotor;
  for (std::size_t round = 0; round < rounds; ++round) {
    rotor.tick();
    if (probe != nullptr) {
      probe->tick(static_cast<double>(round) / static_cast<double>(rounds));
    }
    par::BatchOptions batch;
    batch.threads = 1;
    const std::size_t drawn = round % kBatchSeeds;
    batch.seed = seed * 0x100000001b3ULL + drawn;
    for (auto* mc : {&st.servo, &st.chains}) {
      const bool servo = mc == &st.servo;
      sweep::SimMonteCarloResult res;
      const auto t0 = Clock::now();
      {
        Spans::Scope sp(spans, "simd",
                        servo ? "simd.mc.servo_rk4" : "simd.mc.chains_200");
        res = sweep::run_sim_monte_carlo(
            servo ? st.servo_factory : st.chains_factory, *mc, batch);
      }
      const double dt = seconds_since(t0);
      account((servo ? 0 : 1) + 3 * drawn, res.trials, dt,
              mc->sim.end_time);
      p.events += res.events;
      p.evictions += res.evictions;
      (servo ? p.servo_width : p.chains_width) = res.batch_width;
      (servo ? p.servo_s : p.chains_s) += dt;
      (servo ? p.servo_n : p.chains_n) += res.trials;
      if (round < kCheckedRounds) {
        sweep::SimMonteCarloSpec scalar = *mc;
        scalar.batch_width = 1;
        const sweep::SimMonteCarloResult ref = sweep::run_sim_monte_carlo(
            servo ? st.servo_factory : st.chains_factory, scalar, batch);
        r.check(ref.digests == res.digests,
                std::string(servo ? "servo_rk4" : "chains_200") +
                    " trial digests differ between auto width and width 1");
      }
    }
    for (std::size_t k = 0; k < kNativeTrials; ++k) {
      const std::uint64_t trial_seed = batch.seed + 1000 + k;
      backend::RunResult res;
      const auto t0 = Clock::now();
      {
        Spans::Scope sp(spans, "backend", "backend.native.servo_rk4");
        res = backend::run(*st.native_model, native_options(trial_seed, mx));
      }
      const double dt = seconds_since(t0);
      account(2 + 3 * (drawn * kNativeTrials + k), 1, dt, 1.0);
      p.events += res.events_dispatched;
      p.native_s += dt;
      ++p.native_n;
      if (res.used != backend::Kind::kNative) {
        const std::string why = res.fallback_reason;
        r.fail("native fallback: " + why.substr(0, why.find(':')));
      }
      if (p.native_n <= kCheckedNative) {
        backend::RunOptions interp = native_options(trial_seed, nullptr);
        interp.kind = backend::Kind::kInterp;
        const backend::RunResult ref = backend::run(*st.native_model, interp);
        r.check(sim::trace_digest(ref.trace) == sim::trace_digest(res.trace),
                "native servo_rk4 trace differs from the interpreter's");
      }
    }
  }
  if (probe != nullptr) probe->tick(1.0);
  return p;
}

/// Native exploration on fresh coordinates: a 1x2 `sweep timing` grid on
/// the native backend; every cell's IR carries its parameters, so each
/// compiles its own module. Returns modules built per cell.
double native_objects_per_cell(std::uint64_t seed) {
  const char* dir = std::getenv("ECSIM_NATIVE_CACHE");
  auto count = [&] {
    std::size_t n = 0;
    if (dir == nullptr || !std::filesystem::exists(dir)) return n;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      n += e.path().extension() == ".so" ? 1 : 0;
    }
    return n;
  };
  const std::size_t before = count();
  SplitMix rng(seed ^ 0xa5a5a5a5ULL);
  sweep::TimingGrid grid;
  grid.loop = sweep::servo_loop();
  grid.loop.backend = backend::Kind::kNative;
  grid.latency_fracs = {rng.uniform(0.0, 0.95)};
  grid.jitter_fracs = {rng.uniform(0.0, 0.25), rng.uniform(0.25, 0.5)};
  par::BatchOptions serial;
  serial.threads = 1;
  sweep::SweepRunner(serial).run(grid);
  return static_cast<double>(count() - before) / 2.0;
}

}  // namespace

void run_montecarlo(const Options& opts, Result& r) {
  const double compile_s = warm_native_cache();
  // Set-up: the three streams and a short native run. The first one in the
  // process pays the dlopen of the pre-built module.
  SetupProbe probe([&] {
    Streams s = make_streams();
    backend::RunOptions ro = native_options(1, nullptr);
    ro.sim.end_time = 0.01;
    const backend::RunResult first = backend::run(*s.native_model, ro);
    r.check(first.used == backend::Kind::kNative,
            "native backend unavailable: " + first.fallback_reason);
  });
  Streams st = make_streams();
  std::printf("montecarlo: native module built in %.2f s; first set-up "
              "(with dlopen) %.4f s\n",
              compile_s, probe.times().front());
  Spans untraced(nullptr);
  const std::size_t rounds =
      ops_for(opts.seconds, kRoundsPerSecond, kMinRounds);

  if (!opts.trace) {
    const Pass p = run_pass(st, opts.seed, rounds, untraced, nullptr, r, &probe);
    report_end_to_end(r, p.log, probe.times(), peak_rss_mb(::getpid()));
    return;
  }

  const Pass base = run_pass(st, opts.seed, (rounds + 1) / 2, untraced,
                             nullptr, r, nullptr);
  obs::Tracer tracer(1u << 16);
  tracer.set_enabled(true);
  Spans spans(&tracer);
  obs::MetricsRegistry mx;
  const Pass p =
      run_pass(st, opts.seed, (rounds + 1) / 2, spans, &mx, r, nullptr);
  const double objects = native_objects_per_cell(opts.seed);
  const std::string trace_path = opts.out_dir + "/montecarlo.trace.json";
  r.check(write_trace(tracer, trace_path), "cannot write " + trace_path);

  auto rate = [](std::size_t n, double s) {
    return s > 0.0 ? static_cast<double>(n) / s : 0.0;
  };
  r.metric("simd.batch_width", static_cast<double>(p.servo_width), "lanes");
  r.metric("simd.chains_200.batch_width", static_cast<double>(p.chains_width),
           "lanes");
  r.metric("simd.evictions", static_cast<double>(p.evictions), "count");
  r.metric("simd.servo_rk4.trials_per_s", rate(p.servo_n, p.servo_s),
           "trials/s");
  r.metric("simd.chains_200.trials_per_s", rate(p.chains_n, p.chains_s),
           "trials/s");
  r.metric("backend.native.servo_rk4.trials_per_s",
           rate(p.native_n, p.native_s), "trials/s");
  r.metric("backend.native_compile_s", compile_s, "s");
  r.metric("backend.native_objects_per_cell", objects, "count/cell");
  r.metric("backend.interp.runs",
           static_cast<double>(mx.counter("backend.interp.runs").value()),
           "count");
  r.metric("backend.native.runs",
           static_cast<double>(mx.counter("backend.native.runs").value()),
           "count");
  for (const char* cat :
       {"legacy_baseline", "disabled", "opaque", "codegen", "toolchain"}) {
    const std::string name = std::string("backend.fallback.") + cat;
    r.metric(name, static_cast<double>(mx.counter(name).value()), "count");
  }
  r.metric("sim.events_per_s", static_cast<double>(p.events) / p.wall_s,
           "events/s");
  r.metric("obs.trace_overhead_share",
           1.0 - rate(p.trials, p.wall_s) / rate(base.trials, base.wall_s),
           "share");
}

}  // namespace lcb
