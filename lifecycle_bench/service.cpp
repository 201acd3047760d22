// service: the sweep daemon (svc::run_server, 2 forked workers) serving the
// explore workload's request stream over one client connection. One op is
// one request; the client waits for each reply (closed loop). Repeats are
// served from the daemon's result cache, fresh requests pay the compute.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "par/batch_runner.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/warm_cache.hpp"

#include "common.hpp"
#include "requests.hpp"

using namespace ecsim;

namespace lcb {
namespace {

constexpr int kSetups = 11;
constexpr std::size_t kWorkers = 2;
// A run is kRounds rounds over the first n requests of the stream, n =
// kRequestsPerSecond per second of run time: the kRounds * n requests take
// about n / kRequestsPerSecond seconds on a 4-vCPU x86-64 host.
constexpr std::size_t kRounds = 5;
constexpr double kRequestsPerSecond = 9.0;
constexpr std::size_t kMinRequests = 8;
constexpr double kConnectTimeoutS = 30.0;

/// A forked daemon and the one connection the workload talks through.
class Daemon {
 public:
  explicit Daemon(std::string socket_path) : path_(std::move(socket_path)) {
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      int rc = 1;
      try {
        svc::ServeOptions so;
        so.socket_path = path_;
        so.workers = kWorkers;
        rc = svc::run_server(so);
      } catch (...) {
        rc = 1;
      }
      ::_exit(rc);
    }
    const auto t0 = Clock::now();
    while (!client_.connect(path_)) {
      if (seconds_since(t0) > kConnectTimeoutS) {
        stop();
        throw std::runtime_error("daemon did not come up: " +
                                 client_.last_error());
      }
      ::usleep(500);
    }
    svc::Request ping;
    ping.verb = svc::Verb::kPing;
    svc::Fields reply;
    svc::ResponseMeta meta;
    if (!client_.request(ping, reply, meta)) {
      stop();
      throw std::runtime_error("daemon ping failed: " + client_.last_error());
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  svc::Client& client() { return client_; }

  /// Peak RSS of the daemon and its workers (MB), read while they live.
  double peak_rss_mb_tree() const {
    double mb = peak_rss_mb(pid_);
    for (const pid_t c : children_of(pid_)) mb += peak_rss_mb(c);
    return mb;
  }

  /// SIGTERM drains the daemon: workers are reaped, the socket unlinked.
  void stop() {
    client_.close();
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    ::unlink(path_.c_str());
  }

 private:
  std::string path_;
  pid_t pid_ = -1;
  svc::Client client_;
};

struct Stats {
  std::uint64_t hits = 0, misses = 0, evictions = 0, bytes = 0;
  std::uint64_t warm_hits = 0, warm_misses = 0;
};

Stats daemon_stats(Daemon& d) {
  svc::Request req;
  req.verb = svc::Verb::kStats;
  svc::Fields reply;
  svc::ResponseMeta meta;
  if (!d.client().request(req, reply, meta)) {
    throw std::runtime_error("stats request failed: " +
                             d.client().last_error());
  }
  Stats s;
  reply.get_u64("hits", s.hits);
  reply.get_u64("misses", s.misses);
  reply.get_u64("evictions", s.evictions);
  reply.get_u64("bytes", s.bytes);
  reply.get_u64("warm_hits", s.warm_hits);
  reply.get_u64("warm_misses", s.warm_misses);
  return s;
}

struct Served {
  std::string failure;  // "" = served
  std::vector<std::string> units;
};

struct Pass {
  std::size_t ops = 0;
  double wall_s = 0.0;
  OpLog log;
  std::size_t units = 0;       // units of every data request sent
  std::size_t hit_units = 0;
  std::size_t redispatches = 0;
  std::vector<double> hit_ms, miss_ms, codec_us;
  Stats stats;          // the daemon's, at the end of the last round
  double rss_mb = 0.0;  // peak of this process plus the daemon tree
};

/// Run requests [0, n) of the stream, `rounds` times over, each round on a
/// fresh daemon: every round starts from an empty result cache and sees the
/// same hits and misses. `d` is the daemon of the first round; it holds the
/// last round's on return. Every request that repeats an earlier one (in
/// the stream or in an earlier round) must get the same reply, and each
/// round's daemon stats must account for exactly the units it was sent.
Pass run_pass(std::unique_ptr<Daemon>& d, const std::string& sock,
              RequestStream& stream, std::size_t n, std::size_t rounds,
              Spans& spans, std::map<std::size_t, Served>& seen, Result& r) {
  Pass p;
  std::size_t round_units = 0;
  auto end_round = [&] {
    p.stats = daemon_stats(*d);
    p.rss_mb = std::max(p.rss_mb,
                        peak_rss_mb(::getpid()) + d->peak_rss_mb_tree());
    r.check(p.stats.hits + p.stats.misses == round_units,
            "daemon stats hits + misses (" +
                std::to_string(p.stats.hits + p.stats.misses) +
                ") != units requested (" + std::to_string(round_units) + ")");
    round_units = 0;
  };
  for (std::size_t k = 0; k < n * rounds; ++k) {
    if (k > 0 && k % n == 0) {
      end_round();
      d.reset();  // drain the previous round's daemon first
      d = std::make_unique<Daemon>(sock);
    }
    const std::size_t i = k % n;
    const svc::Request req = stream.at(i);
    Served s;
    svc::ResponseMeta meta;
    double codec_s = 0.0;
    const auto t0 = Clock::now();
    {
      Spans::Scope op(spans, "op", "service.request");
      svc::Fields reply;
      bool ok = false;
      {
        Spans::Scope sp(spans, "svc", "svc.round_trip");
        ok = d->client().request(req, reply, meta);
      }
      if (!ok) {
        s.failure = (meta.error.empty() ? "transport: " : "daemon error: ") +
                    d->client().last_error();
      } else {
        Spans::Scope sp(spans, "svc", "svc.codec");
        const auto c0 = Clock::now();
        const std::string* units = reply.get("units");
        if (units == nullptr || !svc::decode_blob_list(*units, s.units) ||
            s.units.size() != req.units()) {
          s.failure = "malformed reply";
        }
        codec_s = seconds_since(c0);
      }
    }
    const double dt = seconds_since(t0);
    ++p.ops;
    p.wall_s += dt;
    p.units += req.units();
    round_units += req.units();
    p.hit_units += meta.cache_hits;
    p.redispatches += meta.redispatches;
    (meta.served_from_cache ? p.hit_ms : p.miss_ms).push_back(dt * 1e3);
    p.codec_us.push_back(codec_s * 1e6);
    double sim_s = 0.0;
    for (const std::string& u : s.units) {
      sim_s += cell_sim_s(req.verb, u, req.t_end);
    }
    p.log.add(i, dt, 1.0, sim_s);
    ++r.attempted;
    if (!s.failure.empty()) {
      r.fail(s.failure.substr(0, 120) + " [" + verb_name(req.verb) + "]");
      if (!d->client().connected()) {
        throw std::runtime_error("lost the daemon connection: " + s.failure);
      }
    }
    const std::size_t first = stream.first_of(i);
    const auto f = seen.find(first);
    if (f == seen.end()) {
      seen.emplace(i, std::move(s));
    } else {
      const bool same = f->second.failure == s.failure &&
                        f->second.units == s.units;
      r.check(same, "request " + std::to_string(i) + " (round " +
                        std::to_string(k / n) +
                        ") got a different reply than request " +
                        std::to_string(first));
      if (!same && s.failure.empty()) {
        r.fail("check: repeated reply differs [" +
               std::string(verb_name(req.verb)) + "]");
      }
    }
  }
  end_round();
  return p;
}

/// Every distinct served unit must be byte-identical to the in-process
/// svc::evaluate_unit of the same request and unit.
void check_against_in_process(RequestStream& stream,
                              const std::map<std::size_t, Served>& seen,
                              Result& r) {
  struct Unit {
    svc::Request req;
    std::size_t unit;
    const std::string* served;
  };
  std::vector<Unit> units;
  for (const auto& [i, s] : seen) {
    if (!s.failure.empty()) continue;
    const svc::Request req = stream.at(i);
    for (std::size_t u = 0; u < s.units.size(); ++u) {
      units.push_back({req, u, &s.units[u]});
    }
  }
  par::BatchOptions batch;
  const unsigned hw = std::thread::hardware_concurrency();
  batch.threads = std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
  par::BatchRunner runner(batch);
  const std::vector<int> same =
      runner.map<int>(units.size(), [&](par::TaskContext& ctx) {
        thread_local svc::WarmCache warm;
        const Unit& u = units[ctx.index];
        return svc::evaluate_unit(u.req, u.unit, warm) == *u.served ? 1 : 0;
      });
  std::size_t differ = 0;
  for (const int s : same) differ += s == 0 ? 1 : 0;
  r.check(differ == 0, std::to_string(differ) + " of " +
                           std::to_string(units.size()) +
                           " served units differ from svc::evaluate_unit");
}

}  // namespace

void run_service(const Options& opts, Result& r) {
  const std::string sock =
      opts.out_dir + "/svc-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> setups;
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();  // drain the previous set-up's daemon first
    const auto t0 = Clock::now();
    d = std::make_unique<Daemon>(sock);
    setups.push_back(seconds_since(t0));
  }
  std::printf("service: daemon with %zu workers on %s\n", kWorkers,
              sock.c_str());
  RequestStream stream(opts.seed);
  const std::size_t n =
      ops_for(opts.seconds, kRequestsPerSecond, kMinRequests);
  std::map<std::size_t, Served> seen;
  Spans untraced(nullptr);

  if (!opts.trace) {
    const Pass p =
        run_pass(d, sock, stream, n, kRounds, untraced, seen, r);
    d.reset();
    check_against_in_process(stream, seen, r);
    report_end_to_end(r, p.log, setups, p.rss_mb);
    return;
  }

  // Traced run: an untraced round for the overhead baseline, then a traced
  // round over the same requests, each on a fresh daemon.
  const Pass base = run_pass(d, sock, stream, n, 1, untraced, seen, r);
  d.reset();
  d = std::make_unique<Daemon>(sock);
  obs::Tracer tracer(1u << 18);
  tracer.set_enabled(true);
  Spans spans(&tracer);
  std::map<std::size_t, Served> seen_traced;
  const Pass p = run_pass(d, sock, stream, n, 1, spans, seen_traced, r);
  const Stats& st = p.stats;
  d.reset();
  check_against_in_process(stream, seen_traced, r);
  const std::string trace_path = opts.out_dir + "/service.trace.json";
  r.check(write_trace(tracer, trace_path), "cannot write " + trace_path);

  std::printf("service: untraced round %zu requests in %.3f s, traced round "
              "%zu requests in %.3f s\n",
              base.ops, base.wall_s, p.ops, p.wall_s);
  r.metric("svc.hit_share",
           p.units > 0 ? static_cast<double>(p.hit_units) /
                             static_cast<double>(p.units)
                       : 0.0,
           "share");
  const std::uint64_t warm = st.warm_hits + st.warm_misses;
  r.metric("svc.warm_hit_share",
           warm > 0 ? static_cast<double>(st.warm_hits) /
                          static_cast<double>(warm)
                    : 0.0,
           "share");
  r.metric("svc.evictions", static_cast<double>(st.evictions), "count");
  r.metric("svc.cache_bytes", static_cast<double>(st.bytes), "bytes");
  r.metric("svc.hit_ms_p50", quantile(p.hit_ms, 0.5), "ms");
  r.metric("svc.miss_ms_p50", quantile(p.miss_ms, 0.5), "ms");
  r.metric("svc.miss_ms_p99", quantile(p.miss_ms, 0.99), "ms");
  r.metric("svc.codec_us_p50", quantile(p.codec_us, 0.5), "us");
  r.metric("svc.redispatches", static_cast<double>(p.redispatches), "count");
  r.metric("obs.trace_overhead_share",
           1.0 - (static_cast<double>(p.ops) / p.wall_s) /
                     (static_cast<double>(base.ops) / base.wall_s),
           "share");
}

}  // namespace lcb
