#include "svc/protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "svc/work_verb.hpp"

namespace ecsim::svc {

// ---- framing ---------------------------------------------------------------

namespace {

/// Move exactly `n` bytes through `io` (::read or ::write). False on a
/// transport error, or on EOF mid-frame or before the prefix.
template <class Io, class Byte>
bool transfer_all(Io io, int fd, Byte* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = io(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Decimal u64 with nothing else in `s`; `v` is written only on success.
bool parse_u64(const std::string& s, std::uint64_t& v) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  v = parsed;
  return true;
}

/// Split `s` on every `sep` (an empty string is one empty token).
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> toks;
  std::size_t at = 0;
  while (true) {
    const std::size_t end = std::min(s.find(sep, at), s.size());
    toks.push_back(s.substr(at, end - at));
    if (end == s.size()) return toks;
    at = end + 1;
  }
}

}  // namespace

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  char prefix[4];  // little-endian length
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>(payload.size() >> (8 * i));
  }
  return transfer_all(::write, fd, prefix, 4) &&
         transfer_all(::write, fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& out) {
  unsigned char prefix[4];
  if (!transfer_all(::read, fd, prefix, 4)) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  if (len > kMaxFrameBytes) return false;
  out.resize(len);
  return len == 0 || transfer_all(::read, fd, out.data(), len);
}

// ---- scalar helpers --------------------------------------------------------

std::string bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

bool double_of(const std::string& s, double& v) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long bits = std::strtoull(s.c_str(), &end, 16);
  if (end != s.c_str() + s.size()) return false;
  const std::uint64_t b = bits;
  std::memcpy(&v, &b, sizeof v);
  return true;
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- Fields ----------------------------------------------------------------

void Fields::set(const std::string& key, std::string value) {
  kv_.emplace_back(key, std::move(value));
}

void Fields::set_u64(const std::string& key, std::uint64_t v) {
  set(key, std::to_string(v));
}

void Fields::set_bits(const std::string& key, double v) {
  set(key, bits_of(v));
}

void Fields::set_list(const std::string& key, const std::vector<double>& vs) {
  std::string out;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out += ',';
    out += hexfloat(vs[i]);
  }
  set(key, std::move(out));
}

const std::string* Fields::get(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Fields::get_u64(const std::string& key, std::uint64_t& v) const {
  const std::string* s = get(key);
  return s != nullptr && parse_u64(*s, v);
}

bool Fields::get_bits(const std::string& key, double& v) const {
  const std::string* s = get(key);
  return s != nullptr && double_of(*s, v);
}

bool Fields::get_list(const std::string& key, std::vector<double>& vs) const {
  const std::string* s = get(key);
  if (s == nullptr) return false;
  vs.clear();
  if (s->empty()) return true;
  for (const std::string& tok : split(*s, ',')) {
    char* end = nullptr;
    vs.push_back(std::strtod(tok.c_str(), &end));
    if (end != tok.c_str() + tok.size() || tok.empty()) return false;
  }
  return true;
}

std::string Fields::serialize() const {
  std::string out;
  for (const auto& [k, v] : kv_) {
    out += k;
    out += ' ';
    out += std::to_string(v.size());
    out += '\n';
    out += v;
    out += '\n';
  }
  return out;
}

bool Fields::parse(const std::string& text, Fields& out) {
  Fields f;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t sp = text.find(' ', at);
    if (sp == std::string::npos) return false;
    const std::size_t nl = text.find('\n', sp + 1);
    if (nl == std::string::npos) return false;
    const std::string key = text.substr(at, sp - at);
    std::uint64_t len = 0;
    if (!parse_u64(text.substr(sp + 1, nl - sp - 1), len)) return false;
    // Subtraction form: `len` is attacker-controlled, so `nl + 1 + len + 1`
    // can wrap. `nl < text.size()` here, so `avail` cannot underflow; the
    // value needs `len` bytes plus its trailing '\n'.
    const std::size_t avail = text.size() - nl - 1;
    if (len >= avail) return false;
    if (text[nl + 1 + len] != '\n') return false;
    f.kv_.emplace_back(key, text.substr(nl + 1, len));
    at = nl + 1 + len + 1;
  }
  out = std::move(f);
  return true;
}

// ---- verbs -----------------------------------------------------------------

namespace {

/// Wire names, in Verb order.
constexpr const char* kVerbNames[] = {
    "sweep_timing", "sweep_arch", "sweep_network", "fault_sweep", "fault_mc",
    "vm_mc",        "ping",       "stats",         "kill_worker"};
static_assert(std::size(kVerbNames) ==
              static_cast<std::size_t>(Verb::kKillWorker) + 1);

/// Fewest reply bytes one unit can take: its "<len>\n<payload>\n" blob
/// around the shortest payload, a value-initialised one (doubles always take
/// 16 hex digits, zero integers and bools one).
std::size_t min_unit_reply_bytes() {
  static const std::size_t n = [] {
    const std::size_t payload = std::min(
        {encode_cell(sweep::SweepCell{}).size(),
         encode_cell(sweep::FaultCell{}).size(),
         encode_cell(sweep::NetworkCell{}).size(),
         encode_mc(sweep::MonteCarloResult{}).size()});
    return std::to_string(payload).size() + payload + 2;
  }();
  return n;
}

/// The parameters a shape carries beyond the common ones, in wire order —
/// the one description the request codec writes and reads. A list, text or
/// count that ends up empty or zero is refused; an absent double or count
/// keeps its Request default.
template <class R, class Visit>
void shape_params(Shape shape, R& r, Visit&& visit) {
  if (shape == Shape::kGrid) {
    visit("rows", r.rows);
    visit("cols", r.cols);
    return;
  }
  if (shape == Shape::kTrials) visit("loss", r.loss);
  visit("trials", r.trials);
  if (shape == Shape::kSpecRun) {
    visit("iterations", r.iterations);
    visit("spec_text", r.spec_text);
  }
}

}  // namespace

const char* to_string(Verb v) {
  const auto i = static_cast<std::size_t>(v);
  return i < std::size(kVerbNames) ? kVerbNames[i] : "?";
}

bool parse_verb(const std::string& s, Verb& out) {
  for (std::size_t i = 0; i < std::size(kVerbNames); ++i) {
    if (s == kVerbNames[i]) {
      out = static_cast<Verb>(i);
      return true;
    }
  }
  return false;
}

// ---- Request ---------------------------------------------------------------

Fields Request::to_fields() const {
  Fields f;
  f.set("verb", to_string(verb));
  f.set("backend", backend);
  f.set("ts", hexfloat(ts));
  f.set("t_end", hexfloat(t_end));
  f.set_u64("seed", seed);
  const WorkVerb* w = find_work_verb(verb);
  if (w == nullptr) return f;
  shape_params(w->shape, *this, [&](const char* key, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, std::vector<double>>) {
      f.set_list(key, v);
    } else if constexpr (std::is_same_v<T, double>) {
      f.set(key, hexfloat(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      f.set(key, v);
    } else {
      f.set_u64(key, v);
    }
  });
  return f;
}

bool Request::from_fields(const Fields& f, Request& out, std::string& err) {
  Request r;
  err.clear();
  const std::string* verb_str = f.get("verb");
  if (verb_str == nullptr || !parse_verb(*verb_str, r.verb)) {
    err = "missing or unknown verb";
    return false;
  }
  if (const std::string* b = f.get("backend")) r.backend = *b;
  if (r.backend != "interp" && r.backend != "native") {
    err = "unknown backend '" + r.backend + "'";
    return false;
  }
  const std::string* s = nullptr;
  char* end = nullptr;
  if ((s = f.get("ts")) != nullptr) r.ts = std::strtod(s->c_str(), &end);
  if ((s = f.get("t_end")) != nullptr) r.t_end = std::strtod(s->c_str(), &end);
  if (!(r.ts > 0.0) || !(r.t_end > 0.0)) {
    err = "ts and t_end must be positive";
    return false;
  }
  f.get_u64("seed", r.seed);
  if (const WorkVerb* w = find_work_verb(r.verb)) {
    const std::string name = to_string(r.verb);
    shape_params(w->shape, r, [&](const char* key, auto& v) {
      using T = std::decay_t<decltype(v)>;
      bool missing = false;
      if constexpr (std::is_same_v<T, std::vector<double>>) {
        missing = !f.get_list(key, v) || v.empty();
      } else if constexpr (std::is_same_v<T, double>) {
        if ((s = f.get(key)) != nullptr) v = std::strtod(s->c_str(), &end);
      } else if constexpr (std::is_same_v<T, std::string>) {
        if ((s = f.get(key)) != nullptr) v = *s;
        missing = v.empty();
      } else {
        std::uint64_t u = v;
        f.get_u64(key, u);
        v = static_cast<T>(u);
        missing = v == 0;
      }
      if (missing && err.empty()) err = name + " needs " + key;
    });
    const char* bad = w->check != nullptr ? w->check(r) : nullptr;
    if (err.empty() && bad != nullptr) err = bad;
    // A small hostile request must not make the daemon allocate per-unit
    // state for more units than one reply frame could ever carry.
    if (err.empty() && r.units() > kMaxFrameBytes / min_unit_reply_bytes()) {
      err = name + " request of " + std::to_string(r.units()) +
            " units cannot fit one reply frame";
    }
    if (!err.empty()) return false;
  }
  out = std::move(r);
  return true;
}

std::size_t Request::units() const {
  const WorkVerb* w = find_work_verb(verb);
  if (w == nullptr) return 0;
  if (w->shape == Shape::kGrid) return rows.size() * cols.size();
  return w->shape == Shape::kTrials ? trials : 1;
}

// ---- responses -------------------------------------------------------------

void meta_to_fields(const ResponseMeta& m, Fields& f) {
  f.set("status", m.ok ? "ok" : "error");
  if (!m.ok) f.set("error", m.error);
  f.set("model_hash", m.model_hash);
  f.set_u64("cache_hits", m.cache_hits);
  f.set_u64("cache_units", m.cache_units);
  f.set_u64("served_from_cache", m.served_from_cache ? 1 : 0);
  f.set_u64("redispatches", m.redispatches);
}

ResponseMeta meta_from_fields(const Fields& f) {
  ResponseMeta m;
  const std::string* status = f.get("status");
  m.ok = status != nullptr && *status == "ok";
  if (const std::string* e = f.get("error")) m.error = *e;
  if (const std::string* h = f.get("model_hash")) m.model_hash = *h;
  f.get_u64("cache_hits", m.cache_hits);
  f.get_u64("cache_units", m.cache_units);
  std::uint64_t flag = 0;
  f.get_u64("served_from_cache", flag);
  m.served_from_cache = flag != 0;
  f.get_u64("redispatches", m.redispatches);
  return m;
}

bool write_reply(int fd, const Fields& reply) {
  std::string bytes = reply.serialize();
  if (bytes.size() > kMaxFrameBytes) {
    ResponseMeta meta = meta_from_fields(reply);
    meta.ok = false;
    meta.error = "reply of " + std::to_string(bytes.size()) +
                 " bytes exceeds the frame limit";
    Fields fail;
    meta_to_fields(meta, fail);
    bytes = fail.serialize();
  }
  return write_frame(fd, bytes);
}

// ---- blob lists ------------------------------------------------------------

std::string encode_blob_list(const std::vector<std::string>& blobs) {
  std::string out = std::to_string(blobs.size());
  out += '\n';
  for (const std::string& b : blobs) {
    out += std::to_string(b.size());
    out += '\n';
    out += b;
    out += '\n';
  }
  return out;
}

bool decode_blob_list(const std::string& text,
                      std::vector<std::string>& blobs) {
  blobs.clear();
  std::size_t at = 0;
  const auto read_count = [&](std::uint64_t& n) {
    const std::size_t nl = text.find('\n', at);
    if (nl == std::string::npos || !parse_u64(text.substr(at, nl - at), n)) {
      return false;
    }
    at = nl + 1;
    return true;
  };
  std::uint64_t count = 0;
  if (!read_count(count)) return false;
  // Every entry costs at least 3 bytes ("0\n" + '\n'), so a count beyond
  // the remaining bytes is corrupt; bounding before reserve() keeps a
  // hostile count from throwing length_error or allocating gigabytes.
  if (count > text.size() - at) return false;
  blobs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    if (!read_count(len)) return false;
    // Subtraction form avoids wrap-around on a hostile u64 length; the
    // payload needs `len` bytes plus its trailing '\n', and `at <= size`.
    if (len >= text.size() - at) return false;
    if (text[at + len] != '\n') return false;
    blobs.push_back(text.substr(at, len));
    at += static_cast<std::size_t>(len) + 1;
  }
  return at == text.size();
}

// ---- unit payload codec ----------------------------------------------------
// One field-list codec for every unit payload: a tag character, then each
// field of the type's list after one space — a double as its IEEE bit
// pattern, an integer in decimal, a bool as 1/0, a string as its length and
// then its bytes (op names contain no spaces), a list as its length and then
// its entries, a nested type as its own field list.

namespace {

auto fields(sweep::SweepCell& c) {
  return std::tie(c.la_frac, c.jitter_frac, c.bus_bandwidth, c.wcet_scale,
                  c.iae, c.ise, c.itae, c.cost, c.overshoot_pct,
                  c.act_latency_mean, c.act_jitter, c.stable);
}

auto fields(sweep::FaultCell& c) {
  return std::tie(c.loss_rate, c.delay, c.iae, c.ise, c.itae, c.cost,
                  c.overshoot_pct, c.fault_seed, c.messages_lost,
                  c.messages_deferred, c.stable);
}

auto fields(sweep::NetworkCell& c) {
  return std::tie(c.bus_load, c.scenario, c.act_latency_mean, c.act_jitter,
                  c.nominal_iae, c.nominal_cost, c.retuned_iae, c.retuned_cost,
                  c.stability_margin, c.schedulable, c.stable);
}

auto fields(math::Summary& s) {
  return std::tie(s.count, s.mean, s.stddev, s.min, s.max, s.median, s.p95);
}

auto fields(sweep::MonteCarloOpStats& op) {
  return std::tie(op.op, op.sensor, op.name, op.mean_latency, op.max_latency,
                  op.jitter);
}

/// Wall-clock fields are not in the list: a cached result is the
/// statistics, not the timing of whoever computed it first.
auto fields(sweep::MonteCarloResult& r) {
  return std::tie(r.trials, r.deadlocks, r.makespan, r.io_ops);
}

template <class T>
constexpr bool kIsList = false;
template <class T>
constexpr bool kIsList<std::vector<T>> = true;

template <class T>
void put(std::string& out, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? " 1" : " 0";
  } else if constexpr (std::is_same_v<T, double>) {
    out += ' ';
    out += bits_of(v);
  } else if constexpr (std::is_integral_v<T>) {
    out += ' ';
    out += std::to_string(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += ' ';
    out += std::to_string(v.size());
    out += ' ';
    out += v;
  } else if constexpr (kIsList<T>) {
    out += ' ';
    out += std::to_string(v.size());
    for (auto& e : v) put(out, e);
  } else {
    std::apply([&](auto&... f) { (put(out, f), ...); }, fields(v));
  }
}

struct Tokens {
  std::vector<std::string> toks;
  std::size_t at = 1;  // past the tag
  std::size_t left() const { return toks.size() - at; }
};

template <class T>
bool take(Tokens& in, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    if (in.left() == 0) return false;
    v = in.toks[in.at++] == "1";
    return true;
  } else if constexpr (std::is_same_v<T, double>) {
    return in.left() > 0 && double_of(in.toks[in.at++], v);
  } else if constexpr (std::is_integral_v<T>) {
    std::uint64_t u = 0;
    if (in.left() == 0 || !parse_u64(in.toks[in.at++], u)) return false;
    v = static_cast<T>(u);
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    std::uint64_t len = 0;
    if (!take(in, len) || in.left() == 0) return false;
    if (in.toks[in.at].size() != len) return false;
    v = in.toks[in.at++];
    return true;
  } else if constexpr (kIsList<T>) {
    // Every entry takes at least one token, so a length beyond the tokens
    // left is corrupt; checking before resize() keeps a hostile length from
    // throwing or allocating unboundedly.
    std::uint64_t n = 0;
    if (!take(in, n) || n > in.left()) return false;
    v.resize(static_cast<std::size_t>(n));
    for (auto& e : v) {
      if (!take(in, e)) return false;
    }
    return true;
  } else {
    return std::apply([&](auto&... f) { return (take(in, f) && ...); },
                      fields(v));
  }
}

template <class T>
std::string encode_payload(char tag, T v) {
  std::string out(1, tag);
  put(out, v);
  return out;
}

template <class T>
bool decode_payload(char tag, const std::string& s, T& v) {
  Tokens in{split(s, ' ')};
  T out;
  if (in.toks[0] != std::string(1, tag) || !take(in, out) || in.left() != 0) {
    return false;
  }
  v = std::move(out);
  return true;
}

}  // namespace

std::string encode_cell(const sweep::SweepCell& c) {
  return encode_payload('S', c);
}
bool decode_cell(const std::string& s, sweep::SweepCell& c) {
  return decode_payload('S', s, c);
}
std::string encode_cell(const sweep::FaultCell& c) {
  return encode_payload('F', c);
}
bool decode_cell(const std::string& s, sweep::FaultCell& c) {
  return decode_payload('F', s, c);
}
std::string encode_cell(const sweep::NetworkCell& c) {
  return encode_payload('N', c);
}
bool decode_cell(const std::string& s, sweep::NetworkCell& c) {
  return decode_payload('N', s, c);
}
std::string encode_mc(const sweep::MonteCarloResult& r) {
  return encode_payload('M', r);
}
bool decode_mc(const std::string& s, sweep::MonteCarloResult& r) {
  return decode_payload('M', s, r);
}

}  // namespace ecsim::svc
