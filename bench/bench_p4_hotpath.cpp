// EXP-P4: zero-allocation steady-state hot path (DESIGN.md §3.4). Measures
// the interpreter's hot path — integrator workspace + function_ref
// dispatch, flat 4-ary event queue drained instant by instant, same-instant
// lane, preallocated block/matrix scratch — on the 200-chain event workload
// and the RK4 servo loop: best-of-25 events/s on a warmed Simulator, plus the
// heap allocations of one steady-state run (counted under
// -DECSIM_ALLOC_GUARD=ON).
//
// GUARD: chains_200 events/s must not fall more than `ledger diff`'s 10 %
// below the committed BENCH_p4.json figure (obs::diff_latest_against_bench,
// the check `ecsim_flow ledger diff --bench=BENCH_p4.json` runs). The
// committed figure is read before this run rewrites BENCH_p4.json, so a
// re-record from the repository root is gated against the previous record.
// The guard runs via `ctest -C bench` (bench_p4_hotpath_guard); the process
// exits nonzero on failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "blocks/examples.hpp"
#include "obs/ledger.hpp"
#include "sim/compiled_model.hpp"
#include "sim/simulator.hpp"

#ifndef ECSIM_COMMITTED_BENCH_P4
#define ECSIM_COMMITTED_BENCH_P4 "BENCH_p4.json"
#endif

using namespace ecsim;

namespace {

struct HotStats {
  std::size_t events = 0;
  double best_events_per_s = 0.0;
  std::size_t allocs_steady = 0;  // one post-warm-up run, ECSIM_ALLOC_GUARD
};

/// Best-of-`reps` events/s of a warmed Simulator, plus the allocations of
/// one steady-state run.
HotStats measure(sim::Model& m, const sim::SimOptions& opts, int reps) {
  sim::Simulator s(sim::CompiledModel(m), opts);
  s.run();
  HotStats st;
  st.events = s.events_dispatched();
  {
    testing::AllocProbe probe;
    s.run();
    st.allocs_steady = probe.allocations();
  }
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    s.run();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    st.best_events_per_s =
        std::max(st.best_events_per_s,
                 static_cast<double>(s.events_dispatched()) / secs);
  }
  return st;
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int experiment() {
  // Before anything rewrites it: the committed record is the floor.
  const std::string committed = read_file(ECSIM_COMMITTED_BENCH_P4);

  bench::banner("EXP-P4", "(hot-path memory discipline, DESIGN.md §3.4)",
                "Steady-state interpreter throughput: workspace integrator, "
                "4-ary event queue, same-instant lane.");
  sim::Model chains = blocks::examples::make_chains(200);
  sim::Model servo = blocks::examples::make_servo();
  const std::string chains_hash =
      ir::hash_hex(sim::build_ir(chains, "chains_200"));
  bench::JsonReport report("EXP-P4");
  report.model_ir_hash("chains_200", chains_hash);
  report.model_ir_hash("servo_rk4", servo);

  // Best-of-25: the guard compares against an absolute figure, so the
  // estimate must ride out transient host load rather than cancel it.
  constexpr int kReps = 25;
  sim::SimOptions chains_opts;
  chains_opts.end_time = 1.0;
  chains_opts.reserve_queue = 1024;
  const HotStats c = measure(chains, chains_opts, kReps);
  sim::SimOptions servo_opts;
  servo_opts.end_time = 5.0;
  servo_opts.integrator.kind = sim::IntegratorKind::kRk4;
  servo_opts.integrator.max_step = 2e-4;
  const HotStats s = measure(servo, servo_opts, kReps);

  std::printf("%-18s %10s %15s %12s\n", "scenario", "events", "hot [ev/s]",
              "hot allocs");
  report.begin_array("hot_path");
  for (const auto& [name, st] :
       {std::pair<const char*, const HotStats&>{"chains_200", c},
        std::pair<const char*, const HotStats&>{"servo_rk4", s}}) {
    std::printf("%-18s %10zu %15.0f %12zu\n", name, st.events,
                st.best_events_per_s, st.allocs_steady);
    report.begin_object();
    report.field("scenario", std::string(name));
    report.field("mode", std::string("hot"));
    report.field("events", st.events);
    report.field("best_events_per_s", st.best_events_per_s);
    report.field("allocs_steady_state_run", st.allocs_steady);
    report.end_object();
  }
  report.end_array();

  obs::LedgerRecord rec;
  rec.ir_hash = chains_hash;
  rec.model = "chains_200";
  rec.backend_requested = rec.backend_used = "interp";
  rec.events = c.events;
  rec.events_per_s = c.best_events_per_s;
  obs::Ledger::global().append(rec);
  const obs::LedgerDiff d =
      obs::diff_latest_against_bench({rec}, committed, "chains_200");
  const bool pass = d.comparable && !d.regression;

  report.begin_array("guard");
  report.begin_object();
  report.field("scenario", std::string("chains_200"));
  report.field("committed_events_per_s", d.committed_events_per_s);
  report.field("measured_events_per_s", c.best_events_per_s);
  report.field("max_drop_pct", d.threshold_pct);
  report.field("pass", std::string(pass ? "yes" : "NO"));
  report.end_object();
  report.end_array();
  std::printf("\nguard (%s): %s — %s\n\n", ECSIM_COMMITTED_BENCH_P4,
              d.message.c_str(), pass ? "PASS" : "FAIL");
  report.write("BENCH_p4.json");
  return pass ? 0 : 1;
}

void BM_SteadyStateRun(benchmark::State& state) {
  sim::Model m =
      blocks::examples::make_chains(static_cast<std::size_t>(state.range(0)));
  sim::SimOptions opts;
  opts.end_time = 1.0;
  sim::Simulator s(sim::CompiledModel(m), opts);
  s.run();  // warm capacities out of the measurement
  for (auto _ : state) {
    s.run();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(s.events_dispatched() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SteadyStateRun)
    ->Arg(16)
    ->Arg(200)
    ->ArgName("chains")
    ->Unit(benchmark::kMillisecond);

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  q.reserve(depth);
  // Steady churn at constant depth: push a scattered time, pop the min.
  std::uint64_t s = 0x2545f4914f6cdd1dull;
  for (std::size_t i = 0; i < depth; ++i) {
    q.push(static_cast<sim::Time>(i % 97), i, 0);
  }
  for (auto _ : state) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    q.push(static_cast<sim::Time>(s % 97), 0, 0);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(4096)->ArgName("depth");

}  // namespace

int main(int argc, char** argv) {
  const int guard = experiment();
  const int bench_rc = bench::run_benchmarks(argc, argv);
  return guard != 0 ? guard : bench_rc;
}
