#include "common.hpp"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/trace_json.hpp"

namespace lcb {

void Result::fail(const std::string& reason) {
  ++failed;
  ++failures[reason];
}

void Result::check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) check_failures.push_back(what);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::size_t ops_for(double seconds, double per_second, std::size_t at_least) {
  const double n = std::round(seconds * per_second);
  return std::max(at_least, static_cast<std::size_t>(std::max(n, 0.0)));
}

void OpLog::add(std::size_t input, double wall, double work_done,
                double simulated, std::size_t n_ops) {
  key.push_back(input);
  wall_s.push_back(wall);
  work.push_back(work_done);
  sim_s.push_back(simulated);
  ops.push_back(n_ops);
}

void report_end_to_end(Result& r, const OpLog& log,
                       const std::vector<double>& setups, double peak_rss) {
  std::map<std::size_t, std::vector<double>> by_key;
  for (std::size_t i = 0; i < log.wall_s.size(); ++i) {
    by_key[log.key[i]].push_back(log.wall_s[i]);
  }
  std::map<std::size_t, double> fastest;
  for (const auto& [k, walls] : by_key) {
    fastest[k] = *std::min_element(walls.begin(), walls.end());
  }
  double wall = 0.0, work = 0.0, sim = 0.0;
  std::vector<double> lat;
  for (std::size_t i = 0; i < log.wall_s.size(); ++i) {
    const double t = fastest.at(log.key[i]);
    wall += t;
    work += log.work[i];
    sim += log.sim_s[i];
    lat.insert(lat.end(), log.ops[i],
               t * 1e3 / static_cast<double>(log.ops[i]));
  }
  r.metric("setup_s", quantile(setups, 0.5), "s");
  r.metric("ops_per_s", work / wall, "ops/s");
  r.metric("latency_p50_ms", quantile(lat, 0.5), "ms");
  r.metric("latency_p90_ms", quantile(lat, 0.9), "ms");
  r.metric("latency_p99_ms", quantile(lat, 0.99), "ms");
  r.metric("peak_rss_mb", peak_rss, "MB");
  r.metric("sim_s_per_host_s", sim / wall, "s/s");
}

SetupProbe::SetupProbe(std::function<void()> setup)
    : setup_(std::move(setup)) {
  run();
}

void SetupProbe::tick(double done) {
  while (static_cast<int>(times_.size()) < kSetups &&
         done * (kSetups - 1) >= static_cast<double>(times_.size())) {
    run();
  }
}

void SetupProbe::run() {
  const auto t0 = Clock::now();
  setup_();
  times_.push_back(seconds_since(t0));
}

CpuRotor::CpuRotor() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotor::tick() {
  if (cpus_.size() < 2 || seconds_since(last_) < kPeriodS) return;
  last_ = Clock::now();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  ::sched_setaffinity(0, sizeof set, &set);  // best effort
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0.0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::vector<pid_t> children_of(pid_t pid) {
  std::vector<pid_t> out;
  DIR* d = ::opendir("/proc");
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    char* end = nullptr;
    const long p = std::strtol(e->d_name, &end, 10);
    if (end == e->d_name || *end != '\0') continue;
    std::ifstream in(std::string("/proc/") + e->d_name + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command: state, ppid, ...
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream ss(stat.substr(close + 1));
    std::string state;
    long ppid = 0;
    ss >> state >> ppid;
    if (ppid == pid) out.push_back(static_cast<pid_t>(p));
  }
  ::closedir(d);
  return out;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::size_t SplitMix::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
}

std::size_t SplitMix::between(std::size_t lo, std::size_t hi) {
  return lo + below(hi - lo + 1);
}

Spans::Scope::Scope(Spans& s, const char* layer, const char* name)
    : spans_(s.on() ? &s : nullptr) {
  if (spans_ != nullptr) spans_->push(layer, name);
}

Spans::Scope::~Scope() {
  if (spans_ != nullptr) spans_->pop();
}

void Spans::push(const char* layer, const char* name) {
  stack_.push_back({layer, name, tracer_->now_us(), 0.0});
}

void Spans::pop() {
  const double end_us = tracer_->now_us();
  const Frame f = std::move(stack_.back());
  stack_.pop_back();
  const double dur_us = end_us - f.start_us;
  self_ms_[f.layer] += (dur_us - f.child_us) / 1e3;
  dur_ms_[f.name].push_back(dur_us / 1e3);
  if (!stack_.empty()) stack_.back().child_us += dur_us;
  tracer_->span(tracer_->intern(f.name),
                tracer_->track("layer/" + f.layer, obs::Domain::kWall),
                f.start_us, end_us);
}

bool write_trace(const obs::Tracer& tracer, const std::string& path) {
  obs::JsonTraceWriter w;
  w.add(tracer);
  return w.write(path);
}

}  // namespace lcb
