#include "svc/server.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "svc/cache_key.hpp"
#include "svc/result_cache.hpp"
#include "svc/work_verb.hpp"

namespace ecsim::svc {

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_stop_signal(int) { g_stop = 1; }

/// In-flight frames per worker pipe. Bounds kernel buffer usage so a
/// blocking write can never deadlock against a worker blocked on its own
/// replies; replies are drained one-for-one once the window fills.
constexpr std::size_t kWindow = 64;

}  // namespace

// ---- unit evaluation (workers, fallback path and tests) --------------------

std::string evaluate_unit(const Request& req, std::size_t unit,
                          WarmCache& warm) {
  if (unit >= req.units()) {
    throw std::out_of_range("evaluate_unit: unit beyond request");
  }
  return find_work_verb(req.verb)->evaluate(req, unit, warm);
}

// ---- worker processes ------------------------------------------------------

namespace {

[[noreturn]] void worker_loop(int fd) {
  // Workers exit on pipe EOF, never on the drain signals the master owns.
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_IGN);
  std::signal(SIGPIPE, SIG_IGN);
  WarmCache warm;
  std::string in;
  while (read_frame(fd, in)) {
    Fields f;
    if (!Fields::parse(in, f)) break;
    if (const std::string* op = f.get("op"); op != nullptr && *op == "die") {
      ::_exit(137);  // test aid: simulated crash, no reply
    }
    Fields reply;
    Request req;
    std::string err;
    std::uint64_t unit = 0;
    if (!Request::from_fields(f, req, err) || !f.get_u64("unit", unit)) {
      reply.set("status", "error");
      reply.set("error", err.empty() ? "malformed unit frame" : err);
    } else {
      try {
        std::string payload = evaluate_unit(req, unit, warm);
        reply.set("status", "ok");
        reply.set("payload", std::move(payload));
      } catch (const std::exception& e) {
        reply.set("status", "error");
        reply.set("error", e.what());
      }
    }
    if (!write_reply(fd, reply)) break;
  }
  ::_exit(0);
}

struct Worker {
  pid_t pid = -1;
  int fd = -1;  // master side of the socketpair
  bool alive = false;
};

struct ServerCtx {
  ServeOptions opts;
  int listen_fd = -1;
  int client_fd = -1;  // live connection, for fd hygiene in forked children
  std::vector<Worker> workers;
  WarmCache* warm = nullptr;
  ResultCache* cache = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::Ledger* ledger = nullptr;
  std::uint64_t requests = 0;
  std::uint64_t redispatched_units = 0;
};

bool spawn_worker(ServerCtx& ctx, std::size_t idx) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Drop every master-side fd so EOF semantics stay exact: a worker must
    // not keep a sibling's pipe (or the listen/client socket) open.
    ::close(sv[0]);
    if (ctx.listen_fd >= 0) ::close(ctx.listen_fd);
    if (ctx.client_fd >= 0) ::close(ctx.client_fd);
    for (const Worker& w : ctx.workers) {
      if (w.fd >= 0) ::close(w.fd);
    }
    worker_loop(sv[1]);
  }
  ::close(sv[1]);
  ctx.workers[idx].pid = pid;
  ctx.workers[idx].fd = sv[0];
  ctx.workers[idx].alive = true;
  return true;
}

void retire_worker(ServerCtx& ctx, std::size_t idx) {
  Worker& w = ctx.workers[idx];
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  w.alive = false;
  if (w.pid > 0) ::waitpid(w.pid, nullptr, 0);
  w.pid = -1;
}

/// Retire a crashed or undrainable worker and fork its replacement, which
/// also empties its pipe of stale replies the hard way.
void replace_worker(ServerCtx& ctx, std::size_t idx) {
  retire_worker(ctx, idx);
  spawn_worker(ctx, idx);
}

/// One unit frame: the full request plus the unit index.
std::string unit_frame(const Fields& req_fields, std::size_t unit) {
  Fields f = req_fields;
  f.set_u64("unit", unit);
  return f.serialize();
}

/// Read one reply from worker `w`. Returns false on transport failure
/// (crash); an application-level error lands in `err` with `true`.
bool read_reply(Worker& w, std::string& payload, std::string& err) {
  std::string in;
  if (!read_frame(w.fd, in)) return false;
  Fields f;
  if (!Fields::parse(in, f)) return false;
  const std::string* status = f.get("status");
  if (status != nullptr && *status == "ok") {
    const std::string* p = f.get("payload");
    if (p == nullptr) return false;
    payload = *p;
    err.clear();
    return true;
  }
  const std::string* e = f.get("error");
  err = e != nullptr ? *e : "worker error";
  return true;
}

/// Windowed round-robin pump of `units` across the live workers. Completed
/// payloads land in `payloads[unit]`. A worker that dies mid-request is
/// replaced and its incomplete units are re-dispatched ONCE to a live
/// worker; a second transport failure (or any evaluation error) fails the
/// request. Returns true on success, false with `err` set otherwise.
bool dispatch_units(ServerCtx& ctx, const Fields& req_fields,
                    const std::vector<std::size_t>& units,
                    std::vector<std::string>& payloads, std::size_t& redispatch,
                    std::string& err) {
  struct Lane {
    std::size_t worker = 0;              // index into ctx.workers
    std::vector<std::size_t> queue;      // unit indices, send order
    std::size_t sent = 0, received = 0;  // frame cursors into `queue`
    bool failed = false;
  };
  std::vector<Lane> lanes;
  for (std::size_t i = 0; i < ctx.workers.size(); ++i) {
    if (ctx.workers[i].alive) lanes.push_back(Lane{i, {}, 0, 0, false});
  }
  if (lanes.empty()) {
    err = "no live workers";
    return false;
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    lanes[i % lanes.size()].queue.push_back(units[i]);
  }

  std::vector<std::size_t> recovery;  // units lost to a crashed worker
  const auto pump_lane = [&](Lane& lane) {
    Worker& w = ctx.workers[lane.worker];
    while (lane.sent < lane.queue.size() &&
           lane.sent - lane.received < kWindow) {
      if (!write_frame(w.fd, unit_frame(req_fields, lane.queue[lane.sent]))) {
        return false;
      }
      ++lane.sent;
    }
    return true;
  };
  const auto fail_lane = [&](Lane& lane) {
    // Everything not yet answered must be recomputed: replies arrive in
    // send order, so the incomplete tail starts at the receive cursor.
    for (std::size_t i = lane.received; i < lane.queue.size(); ++i) {
      recovery.push_back(lane.queue[i]);
    }
    lane.failed = true;
    replace_worker(ctx, lane.worker);
  };
  // Failing the request while other lanes still have in-flight frames would
  // leave stale replies in their pipes, to be misread as answers for the
  // NEXT request's units. Consume every outstanding reply first; a worker
  // that cannot be drained is replaced.
  const auto drain_all = [&]() {
    for (Lane& lane : lanes) {
      if (lane.failed) continue;
      while (lane.received < lane.sent) {
        std::string payload, unit_err;
        if (!read_reply(ctx.workers[lane.worker], payload, unit_err)) {
          lane.failed = true;
          replace_worker(ctx, lane.worker);
          break;
        }
        ++lane.received;
      }
    }
  };

  for (Lane& lane : lanes) {
    if (!pump_lane(lane)) fail_lane(lane);
  }
  bool outstanding = true;
  while (outstanding) {
    outstanding = false;
    for (Lane& lane : lanes) {
      if (lane.failed || lane.received >= lane.queue.size()) continue;
      std::string payload, unit_err;
      if (!read_reply(ctx.workers[lane.worker], payload, unit_err)) {
        fail_lane(lane);
        continue;
      }
      if (!unit_err.empty()) {
        err = unit_err;
        ++lane.received;  // the errored reply itself is consumed
        drain_all();
        return false;
      }
      payloads[lane.queue[lane.received]] = std::move(payload);
      ++lane.received;
      if (!pump_lane(lane)) {
        fail_lane(lane);
        continue;
      }
      if (lane.received < lane.queue.size()) outstanding = true;
    }
  }

  // Single re-dispatch of crash-lost units, serially, to any live worker.
  for (const std::size_t unit : recovery) {
    Worker* target = nullptr;
    for (Worker& w : ctx.workers) {
      if (w.alive) {
        target = &w;
        break;
      }
    }
    if (target == nullptr) {
      err = "worker crashed and no replacement is live";
      return false;
    }
    std::string payload, unit_err;
    if (!write_frame(target->fd, unit_frame(req_fields, unit)) ||
        !read_reply(*target, payload, unit_err)) {
      replace_worker(ctx,
                     static_cast<std::size_t>(target - ctx.workers.data()));
      err = "re-dispatched unit failed twice";
      return false;
    }
    if (!unit_err.empty()) {
      err = unit_err;
      return false;
    }
    payloads[unit] = std::move(payload);
    ++redispatch;
  }
  return true;
}

void stamp_ledger(ServerCtx& ctx, const Request& req,
                  const ResponseMeta& meta, double wall_s) {
  obs::LedgerRecord r;
  r.ir_hash = meta.model_hash.rfind("0x", 0) == 0 ? meta.model_hash : "";
  r.model = std::string("svc/") + to_string(req.verb);
  r.backend_requested = req.backend;
  r.backend_used = req.backend;
  r.seed = req.seed;
  r.threads = static_cast<unsigned>(ctx.opts.workers);
  r.wall_s = wall_s;
  r.served_from_cache = meta.served_from_cache ? 1 : 0;
  r.metrics_json = "{}";
  ctx.ledger->append(r);
}

/// Crash the highest-index live worker, so a later request exercises the
/// EOF-detection + re-dispatch path for real. False when none is live.
bool kill_worker(ServerCtx& ctx) {
  for (std::size_t i = ctx.workers.size(); i-- > 0;) {
    if (!ctx.workers[i].alive) continue;
    Fields die;
    die.set("op", "die");
    write_frame(ctx.workers[i].fd, die.serialize());
    return true;
  }
  return false;
}

/// Handle one request frame; the reply frame goes out on `cfd`.
void handle_request(ServerCtx& ctx, int cfd, const Fields& f) {
  Fields reply;
  ResponseMeta meta;
  Request req;
  std::string err;
  const bool parsed = Request::from_fields(f, req, err);
  if (!parsed || find_work_verb(req.verb) == nullptr) {  // control verbs
    meta.ok = parsed && (req.verb != Verb::kKillWorker || kill_worker(ctx));
    if (!meta.ok) meta.error = parsed ? "no live worker to kill" : err;
    meta_to_fields(meta, reply);
    if (meta.ok && req.verb == Verb::kStats) {
      reply.set_u64("requests", ctx.requests);
      reply.set_u64("hits", ctx.cache->hits());
      reply.set_u64("misses", ctx.cache->misses());
      reply.set_u64("evictions", ctx.cache->evictions());
      reply.set_u64("bytes", ctx.cache->bytes());
      reply.set_u64("entries", ctx.cache->size());
      reply.set_u64("warm_hits", ctx.warm->hits());
      reply.set_u64("warm_misses", ctx.warm->misses());
      reply.set_u64("redispatched_units", ctx.redispatched_units);
      std::uint64_t alive = 0;
      for (const Worker& w : ctx.workers) alive += w.alive ? 1 : 0;
      reply.set_u64("workers", alive);
    }
    write_reply(cfd, reply);
    return;
  }

  const auto t0 = std::chrono::steady_clock::now();
  ++ctx.requests;
  try {
    meta.model_hash =
        find_work_verb(req.verb)->shape == Shape::kSpecRun
            ? spec_content_hash(req.spec_text)
            : ctx.warm->loop(req.ts, req.t_end, loop_seed(req)).ir_hash;
    const std::size_t n = req.units();
    std::vector<std::string> keys(n), payloads(n);
    std::vector<std::size_t> misses;
    for (std::size_t u = 0; u < n; ++u) {
      keys[u] = unit_key(req, meta.model_hash, u).canonical();
      if (ctx.cache->get(keys[u], payloads[u])) {
        ++meta.cache_hits;
      } else {
        misses.push_back(u);
      }
    }
    meta.cache_units = n;
    if (!misses.empty()) {
      const Fields req_fields = req.to_fields();
      if (!dispatch_units(ctx, req_fields, misses, payloads,
                          meta.redispatches, err)) {
        throw std::runtime_error(err);
      }
      for (const std::size_t u : misses) {
        ctx.cache->put(keys[u], payloads[u]);
      }
    }
    ctx.redispatched_units += meta.redispatches;
    meta.served_from_cache = meta.cache_hits == n;
    meta.ok = true;
    meta_to_fields(meta, reply);
    reply.set("units", encode_blob_list(payloads));
  } catch (const std::exception& e) {
    meta.ok = false;
    meta.error = e.what();
    reply = Fields();
    meta_to_fields(meta, reply);
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  stamp_ledger(ctx, req, meta, wall_s);
  if (ctx.opts.verbose) {
    std::fprintf(stderr,
                 "svc: %s units=%zu hits=%zu redispatch=%zu %s%.1f ms\n",
                 to_string(req.verb), meta.cache_units, meta.cache_hits,
                 meta.redispatches, meta.ok ? "" : "ERROR ",
                 wall_s * 1e3);
  }
  write_reply(cfd, reply);
}

}  // namespace

// ---- daemon ----------------------------------------------------------------

int run_server(const ServeOptions& opts) {
  if (opts.socket_path.empty() || opts.workers == 0) {
    std::fprintf(stderr, "svc: serve needs --socket=PATH and --workers>=1\n");
    return 2;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts.socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "svc: socket path too long: %s\n",
                 opts.socket_path.c_str());
    return 2;
  }
  std::memcpy(addr.sun_path, opts.socket_path.c_str(),
              opts.socket_path.size() + 1);

  ServerCtx ctx;
  ctx.opts = opts;
  ctx.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ctx.listen_fd < 0) {
    std::perror("svc: socket");
    return 1;
  }
  ::unlink(opts.socket_path.c_str());
  if (::bind(ctx.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(ctx.listen_fd, 16) != 0) {
    std::perror("svc: bind/listen");
    ::close(ctx.listen_fd);
    return 1;
  }

  g_stop = 0;
  struct sigaction sa{};
  sa.sa_handler = on_stop_signal;  // no SA_RESTART: poll returns EINTR
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  obs::MetricsRegistry metrics;
  WarmCache warm(&metrics);
  ResultCache cache(opts.cache_mb << 20, &metrics);
  obs::Ledger local_ledger(opts.ledger_path);
  ctx.warm = &warm;
  ctx.cache = &cache;
  ctx.metrics = &metrics;
  ctx.ledger = opts.ledger_path.empty() ? &obs::Ledger::global()
                                        : &local_ledger;
  ctx.workers.resize(opts.workers);
  for (std::size_t i = 0; i < opts.workers; ++i) {
    if (!spawn_worker(ctx, i)) {
      std::fprintf(stderr, "svc: cannot fork worker %zu\n", i);
      for (std::size_t k = 0; k < i; ++k) retire_worker(ctx, k);
      ::close(ctx.listen_fd);
      ::unlink(opts.socket_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "svc: serving on %s (%zu workers, %zu MB cache)\n",
               opts.socket_path.c_str(), opts.workers, opts.cache_mb);

  while (g_stop == 0) {
    pollfd pfd{ctx.listen_fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int cfd = ::accept(ctx.listen_fd, nullptr, nullptr);
    if (cfd < 0) continue;
    ctx.client_fd = cfd;
    std::string in;
    while (g_stop == 0) {
      pollfd cpfd{cfd, POLLIN, 0};
      const int cpr = ::poll(&cpfd, 1, 200);
      if (cpr <= 0) continue;  // idle connection: keep watching the flag
      if (!read_frame(cfd, in)) break;  // client closed
      Fields f;
      if (!Fields::parse(in, f)) break;
      handle_request(ctx, cfd, f);
    }
    ::close(cfd);
    ctx.client_fd = -1;
  }

  // Drain: closing the pipes is the workers' exit signal.
  for (std::size_t i = 0; i < ctx.workers.size(); ++i) retire_worker(ctx, i);
  ::close(ctx.listen_fd);
  ::unlink(opts.socket_path.c_str());
  std::fprintf(stderr,
               "svc: drained (%llu requests, %llu cache hits / %llu misses, "
               "%llu evictions)\n",
               static_cast<unsigned long long>(ctx.requests),
               static_cast<unsigned long long>(cache.hits()),
               static_cast<unsigned long long>(cache.misses()),
               static_cast<unsigned long long>(cache.evictions()));
  return 0;
}

}  // namespace ecsim::svc
