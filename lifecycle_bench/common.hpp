// Shared plumbing of the design-lifecycle benchmark: options, the result
// record every workload fills, sample statistics, memory readings and the
// span recorder of the traced run.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/tracer.hpp"

namespace lcb {

namespace obs = ecsim::obs;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";   // traces and the daemon socket go here
  std::string spec_dir;        // the committed examples/specs directory
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: op accounting with failure reasons, the
/// outcome of every output check, and its metrics in print order.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::size_t> failures;  // reason -> ops
  std::size_t checks = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;

  /// Count one failed op under `reason`.
  void fail(const std::string& reason);
  /// Record one output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  bool correct() const { return check_failures.empty(); }
};

/// Quantile by linear interpolation between order statistics (q in [0,1]).
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// How many rounds over a workload's op sequence, or how many ops, a run of
/// `seconds` does: `per_second` of them per second of run time, at least
/// `at_least`. The op count of a run depends only on its length, never on
/// how fast the ops go, so `attempted` and `failed` are a function of the
/// seed and the run length alone.
std::size_t ops_for(double seconds, double per_second, std::size_t at_least);

/// The timed calls of a run, in order. A call is one op, or for montecarlo
/// one batch of trials; each op of a call gets the call's wall divided by
/// its op count as its latency. `key` names the call's input: calls with
/// equal keys do the same work. Every workload repeats each of its inputs
/// several times in a run (whole rounds over a fixed op sequence).
struct OpLog {
  std::vector<double> wall_s;     // per call
  std::vector<double> work;       // per call: what ops_per_s counts
  std::vector<double> sim_s;      // per call: simulated seconds
  std::vector<std::size_t> key;   // per call: input identity
  std::vector<std::size_t> ops;   // per call: latency samples it gives

  void add(std::size_t input, double wall, double work_done,
           double simulated, std::size_t n_ops = 1);
};

/// Report the end-to-end metrics of a run. Each call is charged the
/// fastest wall of all calls with the same key, i.e. of every repetition of
/// its input in the run: other tenants of the host only ever slow a call,
/// often by half or more and in bursts, so the fastest repetition is the
/// op's own cost. Rates are total work (or simulated time) over the total
/// charged wall; latency percentiles are over the charged per-op latencies
/// of every op, so each input weighs as often as it ran. `setups` are the
/// run's set-up times.
void report_end_to_end(Result& r, const OpLog& log,
                       const std::vector<double>& setups, double peak_rss_mb);

/// Times a workload's set-up kSetups times, spread over the run: once up
/// front, then after every 1/(kSetups - 1) of the run's ops. Set-up is thus
/// sampled under the same host conditions as the ops, not in one burst at
/// start. `setup` must not touch the inputs the ops are using.
class SetupProbe {
 public:
  static constexpr int kSetups = 21;
  explicit SetupProbe(std::function<void()> setup);
  /// Call between ops with the share of the run's ops done so far (0..1).
  void tick(double done);
  const std::vector<double>& times() const { return times_; }

 private:
  void run();
  std::function<void()> setup_;
  std::vector<double> times_;
};

/// Moves the calling thread to the next CPU it may run on every kPeriodS.
/// A single-threaded loop otherwise stays on one CPU for a whole run and
/// inherits that CPU's share of load from the host's other tenants;
/// rotating spreads the run over all of them.
class CpuRotor {
 public:
  static constexpr double kPeriodS = 0.25;
  CpuRotor();
  /// Call between ops.
  void tick();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point last_ = Clock::now();
};

/// Peak resident set (VmHWM) of a live process, in MB; 0 when unreadable.
double peak_rss_mb(pid_t pid);
/// Direct children of `pid` (from /proc), for daemon worker accounting.
std::vector<pid_t> children_of(pid_t pid);

/// FNV-1a, folding more bytes into a running digest.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// splitmix64: the benchmark's own input generator (independent of the
/// library's RNG so the inputs never move when the library's streams do).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);            // [lo, hi)
  std::size_t below(std::size_t n);                 // [0, n)
  std::size_t between(std::size_t lo, std::size_t hi);  // [lo, hi]
  bool chance(double p) { return uniform(0.0, 1.0) < p; }

 private:
  std::uint64_t s_;
};

/// Per-layer spans of the traced run, recorded from the benchmark's own
/// calls into each layer. Every span goes to an obs::Tracer track named
/// after its layer (exported as Perfetto JSON) and into self-time
/// accounting: a span's self time is its duration minus the time its child
/// spans cover. With no tracer attached a span costs one branch. Single
/// thread only (spans nest on one stack).
class Spans {
 public:
  explicit Spans(obs::Tracer* tracer) : tracer_(tracer) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  class Scope {
   public:
    Scope(Spans& s, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
  };

  bool on() const { return tracer_ != nullptr; }
  /// Self time per layer (ms), summed over all spans.
  const std::map<std::string, double>& self_ms() const { return self_ms_; }
  /// Durations (ms) of every span, by span name.
  const std::map<std::string, std::vector<double>>& durations_ms() const {
    return dur_ms_;
  }
 private:
  struct Frame {
    std::string layer;
    std::string name;
    double start_us = 0.0;
    double child_us = 0.0;
  };
  void push(const char* layer, const char* name);
  void pop();

  obs::Tracer* tracer_;
  std::vector<Frame> stack_;
  std::map<std::string, double> self_ms_;
  std::map<std::string, std::vector<double>> dur_ms_;
};

/// Write the tracer as Perfetto / Chrome trace-event JSON. False on I/O
/// failure.
bool write_trace(const obs::Tracer& tracer, const std::string& path);

// ---- workloads ---------------------------------------------------------------
// Each runs its closed loop for a number of ops set by opts.seconds (see
// ops_for) and fills `r`. With opts.trace
// the per-layer metrics are reported, otherwise the end-to-end ones.

void run_design_cycle(const Options& opts, Result& r);
void run_explore(const Options& opts, Result& r);
void run_montecarlo(const Options& opts, Result& r);
void run_service(const Options& opts, Result& r);

}  // namespace lcb
