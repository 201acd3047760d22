// design_cycle: the paper's per-iteration loop. One op takes one spec text
// through the `ecsim_flow simulate` flow in memory: parse, adequation and
// schedule validation, executive generation, a WCET executive-VM run with
// its conformance check, and a random-execution-times run with the order
// check and the latency analysis. One thread, closed loop.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "exec/conformance.hpp"
#include "exec/executive_vm.hpp"
#include "io/spec.hpp"
#include "latency/latency.hpp"
#include "obs/metrics.hpp"

#include "common.hpp"

using namespace ecsim;

namespace lcb {
namespace {

constexpr std::size_t kGenerated = 160;   // generated specs per pool
constexpr std::size_t kMinOps = 5;
constexpr std::size_t kMaxOps = 150;
constexpr std::size_t kIterations = 50;   // as `ecsim_flow simulate`
// Passes over the pool per second of run time: a pass takes about 1.8 s
// on a 4-vCPU x86-64 host (GCC 12, Release).
constexpr double kPassesPerSecond = 0.55;
constexpr std::size_t kMinPasses = 3;

struct SpecInput {
  std::string label;
  std::string text;
};

const char* const kBusKinds[] = {"plain", "can", "tdma", "loaded"};

/// One generated spec: a layered sensor -> compute -> actuator graph of
/// `n_ops` operations on `procs` processors sharing one bus of the given
/// kind. The seed draws the topology, WCETs, message sizes, placements and
/// which ops are conditional or multirate.
std::string generate_spec(SplitMix& rng, std::size_t index, std::size_t n_ops,
                          std::size_t procs, std::size_t bus_kind) {
  const std::size_t n_io = std::clamp<std::size_t>(n_ops / 10, 1, 8);
  const std::size_t n_comp = n_ops - 2 * n_io;
  const std::size_t width = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::sqrt(static_cast<double>(n_comp))));
  // Multirate expansion excludes conditional ops and message priorities.
  const bool multirate = n_ops <= 40 && index % 3 == 0;

  struct Op {
    std::string name;
    std::string kind;
    double wcet = 0.0;      // worst branch for conditional ops
    std::string body;       // wcet or branch list
    std::string bind;       // "" or "@Pk"
    std::size_t layer = 0;
  };
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n_io; ++i) {
    const double w = rng.uniform(1e-4, 3e-4);
    ops.push_back({"s" + std::to_string(i), "sensor", w, "", "", 0});
  }
  for (std::size_t i = 0; i < n_comp; ++i) {
    Op op{"c" + std::to_string(i), "compute", 0.0, "", "", 1 + i / width};
    if (!multirate && rng.chance(0.1)) {
      const double fast = rng.uniform(1e-4, 5e-4);
      const double slow = rng.uniform(5e-4, 2e-3);
      op.wcet = slow;
      char buf[96];
      std::snprintf(buf, sizeof buf, "branch fast %.6g branch slow %.6g", fast,
                    slow);
      op.body = buf;
    } else {
      op.wcet = rng.uniform(2e-4, 2e-3);
    }
    if (rng.chance(0.1)) op.bind = "@P" + std::to_string(rng.below(procs));
    ops.push_back(op);
  }
  const std::size_t last_layer = 1 + (n_comp - 1) / width;
  for (std::size_t i = 0; i < n_io; ++i) {
    const double w = rng.uniform(1e-4, 3e-4);
    ops.push_back({"a" + std::to_string(i), "actuator", w, "", "",
                   last_layer + 1});
  }
  for (Op& op : ops) {
    if (op.body.empty()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", op.wcet);
      op.body = buf;
    }
    if (op.kind != "compute") op.bind = "@P" + std::to_string(rng.below(procs));
  }

  // Edges: every op past layer 0 reads 1-3 ops of the previous layer; every
  // op before the last layer feeds at least one op of the next.
  std::vector<std::vector<std::size_t>> layers(last_layer + 2);
  for (std::size_t i = 0; i < ops.size(); ++i) layers[ops[i].layer].push_back(i);
  std::vector<std::pair<std::size_t, std::size_t>> deps;
  for (std::size_t l = 1; l < layers.size(); ++l) {
    const auto& prev = layers[l - 1];
    std::vector<bool> fed(prev.size(), false);
    for (const std::size_t to : layers[l]) {
      const std::size_t k = std::min<std::size_t>(prev.size(), rng.between(1, 3));
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t p = rng.below(prev.size());
        if (std::find(deps.begin(), deps.end(), std::make_pair(prev[p], to)) ==
            deps.end()) {
          deps.emplace_back(prev[p], to);
          fed[p] = true;
        }
      }
    }
    for (std::size_t p = 0; p < prev.size(); ++p) {
      if (!fed[p]) {
        deps.emplace_back(prev[p], layers[l][rng.below(layers[l].size())]);
      }
    }
  }

  // Bus parameters sit on the ladder too: one draw per spec would move the
  // spec's cost and period with the seed far more than its topology does.
  const std::size_t rung = index % 3;
  const double bandwidth = std::array{5e4, 1e5, 2e5}[rung];
  const double bus_latency = 5e-5;
  const double can_blocking = std::array{2e-4, 5e-4, 1e-3}[rung];
  const double tdma_slot = std::array{2.5e-4, 5e-4, 1e-3}[rung];
  const std::size_t tdma_slots = index % 2 == 0 ? procs : 1;
  const double load = std::array{0.2, 0.35, 0.5}[rung];

  // A period no list schedule can overrun: every op and every transfer
  // serialized, each transfer paying its worst arbitration wait.
  double bound = 0.0;
  for (const Op& op : ops) bound += op.wcet;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < deps.size(); ++i) {
    sizes.push_back(static_cast<double>(rng.between(4, 16)));
    double t = sizes.back() / bandwidth + bus_latency;
    if (bus_kind == 1) t += can_blocking;
    if (bus_kind == 2) t += tdma_slot * static_cast<double>(tdma_slots + 1);
    if (bus_kind == 3) t /= 1.0 - load;
    bound += t;
  }
  double period = 2.0 * bound;
  if (bus_kind == 2) {
    // Time-triggered design rule: the period is a whole number of TDMA
    // rounds, so every iteration meets the slot grid at the same phase.
    const double round = tdma_slot * static_cast<double>(tdma_slots);
    period = std::ceil(period / round) * round;
  }

  std::ostringstream s;
  s.precision(17);  // the period must stay a whole number of TDMA rounds
  s << "[algorithm]\nname gen" << index << "\nperiod " << period << "\n";
  for (const Op& op : ops) {
    s << "op " << op.name << " " << op.kind << " " << op.body;
    if (!op.bind.empty()) s << " " << op.bind;
    s << "\n";
  }
  for (std::size_t i = 0; i < deps.size(); ++i) {
    s << "dep " << ops[deps[i].first].name << " " << ops[deps[i].second].name
      << " " << sizes[i];
    if (bus_kind == 1 && !multirate) s << " prio " << rng.below(4);
    s << "\n";
  }
  if (multirate) {
    // One compute op at half the base rate.
    s << "rate c" << rng.below(n_comp) << " 2\n";
  }
  s << "[architecture]\nname arch" << index << "\n";
  for (std::size_t p = 0; p < procs; ++p) s << "proc P" << p << " cpu\n";
  s << "bus bus0 " << bandwidth << " " << bus_latency;
  for (std::size_t p = 0; p < procs; ++p) s << " P" << p;
  s << "\n";
  if (bus_kind == 1) s << "can bus0 " << can_blocking << "\n";
  if (bus_kind == 2) s << "tdma bus0 " << tdma_slot << " " << tdma_slots << "\n";
  if (bus_kind == 3) s << "load bus0 " << load << "\n";
  return s.str();
}

/// The spec pool: the committed example specs plus kGenerated seeded specs.
/// Sizes, processor counts and bus kinds are laid out on a fixed ladder so
/// every seed sees the same size spread; the seed draws everything else.
std::vector<SpecInput> make_pool(const Options& opts) {
  std::vector<SpecInput> pool;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(opts.spec_dir)) {
    if (e.path().extension() == ".spec") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    std::ifstream in(f);
    std::ostringstream ss;
    ss << in.rdbuf();
    pool.push_back({f.filename().string(), ss.str()});
  }
  if (pool.empty()) {
    throw std::runtime_error("no .spec files in " + opts.spec_dir);
  }
  SplitMix rng(opts.seed * 0x2545f4914f6cdd1dULL + 11);
  for (std::size_t i = 0; i < kGenerated; ++i) {
    const std::size_t n = kMinOps + ((kMaxOps - kMinOps) * i + (kGenerated - 1) / 2) /
                                        (kGenerated - 1);
    const std::size_t procs = 2 + i % 5;
    const std::size_t bus = (i / 5) % 4;
    char label[64];
    std::snprintf(label, sizeof label, "gen%zu-%zuops-%zup-%s", i, n, procs,
                  kBusKinds[bus]);
    pool.push_back({label, generate_spec(rng, i, n, procs, bus)});
  }
  return pool;
}

/// Everything one design iteration produced. Filled inside the timed op;
/// digested and released after it.
struct Flow {
  std::string failure;  // empty = the op succeeded
  io::ParsedSpec spec;
  aaa::Schedule sched{0, 0};
  aaa::GeneratedCode code;
  exec::VmResult wcet_run, rnd_run;
  double latency_sum = 0.0;  // folds every analyzed latency series
  double sim_s = 0.0;        // executive time simulated by the two VM runs
  bool conformance_violated = false;
};

void fold_times(std::uint64_t& h, const exec::VmResult& vm) {
  std::string bytes;
  for (const exec::OpInstance& o : vm.ops) {
    bytes.append(reinterpret_cast<const char*>(&o.start), sizeof o.start);
    bytes.append(reinterpret_cast<const char*>(&o.end), sizeof o.end);
    bytes.append(reinterpret_cast<const char*>(&o.proc), sizeof o.proc);
  }
  for (const exec::CommInstance& c : vm.comms) {
    bytes.append(reinterpret_cast<const char*>(&c.start), sizeof c.start);
    bytes.append(reinterpret_cast<const char*>(&c.end), sizeof c.end);
  }
  h = fnv1a(bytes, h);
}

std::uint64_t digest(const Flow& f) {
  std::uint64_t h = fnv1a(f.sched.to_string(f.spec.algorithm,
                                            f.spec.architecture));
  h = fnv1a(f.code.source, h);
  fold_times(h, f.wcet_run);
  fold_times(h, f.rnd_run);
  return fnv1a(std::string(reinterpret_cast<const char*>(&f.latency_sum),
                           sizeof f.latency_sum),
               h);
}

/// One design iteration, as `ecsim_flow simulate` runs it. `mx` (may be
/// null) receives the adequation and VM counters.
void design_iteration(const std::string& text, Spans& spans,
                      obs::MetricsRegistry* mx, Flow& f) {
  Spans::Scope op_span(spans, "op", "design_cycle.op");
  {
    Spans::Scope s(spans, "io", "io.parse_spec");
    f.spec = io::parse_spec(text);
  }
  const aaa::AlgorithmGraph& alg = f.spec.algorithm;
  const aaa::ArchitectureGraph& arch = f.spec.architecture;
  if (!f.spec.has_algorithm || !f.spec.has_architecture) {
    f.failure = "exception: spec lacks a section";
    return;
  }
  aaa::AdequationOptions aopts;
  aopts.metrics = mx;
  {
    Spans::Scope s(spans, "aaa", "aaa.adequate");
    f.sched = aaa::adequate(alg, arch, aopts);
  }
  {
    Spans::Scope s(spans, "aaa", "aaa.validate");
    f.sched.validate(alg, arch);
  }
  {
    Spans::Scope s(spans, "aaa", "aaa.codegen");
    f.code = aaa::generate_executives(alg, arch, f.sched);
  }
  const double period =
      alg.period() > 0.0 ? alg.period() : f.sched.makespan();
  exec::VmOptions vo;
  vo.iterations = kIterations;
  vo.period = period;
  vo.branch_chooser = exec::worst_case_branch_chooser();
  vo.metrics = mx;
  {
    Spans::Scope s(spans, "exec", "exec.vm");
    f.wcet_run = exec::run_executives(alg, arch, f.sched, f.code, vo);
  }
  exec::ConformanceReport conf;
  {
    Spans::Scope s(spans, "exec", "exec.conformance");
    conf = exec::check_wcet_conformance(alg, arch, f.sched, f.wcet_run,
                                        period);
  }
  exec::VmOptions rnd = vo;
  rnd.exec_time = exec::uniform_fraction_exec_time(0.5);
  rnd.branch_chooser = exec::uniform_branch_chooser();
  {
    Spans::Scope s(spans, "exec", "exec.vm");
    f.rnd_run = exec::run_executives(alg, arch, f.sched, f.code, rnd);
  }
  exec::ConformanceReport order;
  {
    Spans::Scope s(spans, "exec", "exec.conformance");
    order = exec::check_order_preservation(alg, arch, f.sched, f.rnd_run);
  }
  {
    Spans::Scope s(spans, "latency", "latency.analyze");
    for (aaa::OpId op = 0; op < alg.num_operations(); ++op) {
      const aaa::Operation& o = alg.op(op);
      if (o.kind == aaa::OpKind::kCompute) continue;
      const latency::LatencySeries series =
          latency::analyze_instants(o.name, f.rnd_run.completions(op), period);
      f.latency_sum += series.summary.mean + series.jitter;
    }
  }
  f.sim_s = 2.0 * static_cast<double>(kIterations) * period;
  f.conformance_violated = !conf.ok;
  if (f.wcet_run.deadlock || f.rnd_run.deadlock) {
    f.failure = "deadlock";
  } else if (!conf.ok) {
    f.failure = "wcet conformance violated";
  } else if (!order.ok) {
    f.failure = "order not preserved";
  }
}

struct Pass {
  std::size_t ops = 0;
  double wall_s = 0.0;
  OpLog log;
  std::size_t conformance_violations = 0;
};

/// Cycles through a seeded order of the spec pool; every recurrence of a
/// spec must reproduce its first digest.
class SpecCycle {
 public:
  SpecCycle(const std::vector<SpecInput>& pool, std::uint64_t seed)
      : pool_(pool), seed_(seed), digests_(pool.size(), 0) {}

  /// Restart the op order from its beginning.
  void rewind() {
    rng_ = SplitMix(seed_ ^ 0x5bd1e995ULL);
    cursor_ = order_.size();
  }

  /// Run `passes` whole passes over the pool, each in a fresh seeded
  /// order. Only the flow itself is timed; digests are compared outside
  /// the op. `probe` (may be null) samples set-up between ops; `count` =
  /// false runs ops without accounting them (warm-up).
  Pass run(std::size_t passes, Spans& spans, obs::MetricsRegistry* mx,
           Result& r, bool count, SetupProbe* probe) {
    Pass p;
    CpuRotor rotor;
    const std::size_t total = passes * pool_.size();
    while (p.ops < total) {
      rotor.tick();
      if (probe != nullptr) {
        probe->tick(static_cast<double>(p.ops) / static_cast<double>(total));
      }
      const std::size_t idx = next();
      Flow f;
      const auto t0 = Clock::now();
      try {
        design_iteration(pool_[idx].text, spans, mx, f);
      } catch (const std::exception& e) {
        f.failure = (std::string("exception: ") + e.what()).substr(0, 120);
      }
      const double dt = seconds_since(t0);
      ++p.ops;
      p.wall_s += dt;
      p.log.add(idx, dt, 1.0, f.sim_s);
      if (f.conformance_violated) ++p.conformance_violations;
      if (count) {
        ++r.attempted;
        if (!f.failure.empty()) {
          r.fail(f.failure + " [" + pool_[idx].label + "]");
        }
      }
      if (f.failure.rfind("exception", 0) != 0) {
        const std::uint64_t d = digest(f);
        if (digests_[idx] == 0) {
          digests_[idx] = d;
        } else if (digests_[idx] != d) {
          const std::string what =
              "recurring spec " + pool_[idx].label + " gave a different digest";
          r.check(false, what);
          if (count && f.failure.empty()) r.fail("check: " + what);
        } else {
          r.check(true, "");
        }
      }
    }
    if (probe != nullptr) probe->tick(1.0);
    return p;
  }

 private:
  std::size_t next() {
    if (cursor_ == order_.size()) {
      order_.resize(pool_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.below(i)]);
      }
      cursor_ = 0;
    }
    return order_[cursor_++];
  }

  const std::vector<SpecInput>& pool_;
  std::uint64_t seed_;
  SplitMix rng_{0};
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
  std::vector<std::uint64_t> digests_;
};

}  // namespace

void run_design_cycle(const Options& opts, Result& r) {
  SetupProbe probe([&] { make_pool(opts); });
  const std::vector<SpecInput> pool = make_pool(opts);
  std::printf("design_cycle: %zu specs in the pool (%zu committed + %zu "
              "generated, %zu-%zu ops)\n",
              pool.size(), pool.size() - kGenerated, kGenerated, kMinOps,
              kMaxOps);
  SpecCycle cycle(pool, opts.seed);
  Spans untraced(nullptr);
  // Warm-up: one untimed, uncounted pass over the pool (allocator arenas,
  // caches); it also records every spec's first digest.
  cycle.rewind();
  cycle.run(1, untraced, nullptr, r, false, nullptr);
  cycle.rewind();
  const std::size_t passes =
      ops_for(opts.seconds, kPassesPerSecond, kMinPasses);

  if (!opts.trace) {
    const Pass p = cycle.run(passes, untraced, nullptr, r, true, &probe);
    r.check(p.ops > 0, "no design iteration completed");
    report_end_to_end(r, p.log, probe.times(), peak_rss_mb(::getpid()));
    return;
  }

  // Traced run: an untraced half for the overhead baseline, then a traced
  // half over the same op order with every layer call in a span.
  const Pass base =
      cycle.run((passes + 1) / 2, untraced, nullptr, r, true, nullptr);
  obs::Tracer tracer(1u << 18);
  tracer.set_enabled(true);
  Spans spans(&tracer);
  obs::MetricsRegistry mx;
  cycle.rewind();
  const Pass p = cycle.run((passes + 1) / 2, spans, &mx, r, true, nullptr);
  const std::string trace_path = opts.out_dir + "/design_cycle.trace.json";
  r.check(write_trace(tracer, trace_path), "cannot write " + trace_path);

  const auto& self = spans.self_ms();
  const auto& dur = spans.durations_ms();
  auto p50 = [&](const char* name) {
    const auto it = dur.find(name);
    return it == dur.end() ? 0.0 : quantile(it->second, 0.5);
  };
  double op_ms = 0.0;
  for (const double d : dur.at("design_cycle.op")) op_ms += d;
  double layers_ms = 0.0;
  for (const auto& [layer, ms] : self) {
    if (layer != "op") layers_ms += ms;
  }
  const double coverage = layers_ms / op_ms;
  std::printf("design_cycle: layer self times cover %.2f%% of op wall "
              "(%.1f of %.1f ms)\n",
              100.0 * coverage, layers_ms, op_ms);
  r.check(coverage >= 0.95 && coverage <= 1.0 + 1e-9,
          "design_cycle layer self times do not sum to within 5% of op wall");
  const double n = static_cast<double>(p.ops);
  auto per_op = [&](const char* counter) {
    return static_cast<double>(mx.counter(counter).value()) / n;
  };
  r.metric("io.parse_ms_p50", p50("io.parse_spec"), "ms");
  r.metric("aaa.adequate_ms_p50", p50("aaa.adequate"), "ms");
  r.metric("aaa.adequate_share", self.at("aaa") / op_ms, "share");
  r.metric("aaa.codegen_ms_p50", p50("aaa.codegen"), "ms");
  r.metric("aaa.candidates_evaluated", per_op("aaa.candidates_evaluated"),
           "count/op");
  r.metric("aaa.ops_scheduled", per_op("aaa.ops_scheduled"), "count/op");
  r.metric("aaa.comms_committed", per_op("aaa.comms_committed"), "count/op");
  r.metric("exec.vm_ms_p50", p50("exec.vm"), "ms");
  r.metric("exec.conformance_ms_p50", p50("exec.conformance"), "ms");
  r.metric("exec.ops_executed", per_op("exec.ops_executed"), "count/op");
  r.metric("exec.comms_executed", per_op("exec.comms_executed"), "count/op");
  r.metric("exec.conformance_violations",
           static_cast<double>(p.conformance_violations), "count");
  r.metric("latency.analyze_ms_p50", p50("latency.analyze"), "ms");
  r.metric("obs.self_time_coverage", coverage, "share");
  r.metric("obs.trace_overhead_share",
           1.0 - (n / p.wall_s) / (static_cast<double>(base.ops) / base.wall_s),
           "share");
}

}  // namespace lcb
