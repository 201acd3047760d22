#include "obs/ledger.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ecsim::obs {

namespace {

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void field_str(std::string& out, const char* key, const std::string& v) {
  out += '"';
  out += key;
  out += "\": \"";
  json_escape_into(out, v);
  out += '"';
}

void field_num(std::string& out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"%s\": %.17g", key, v);
  out += buf;
}

void field_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"%s\": %llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

// ---- minimal JSON field extraction -----------------------------------------
// Ledger lines and BENCH_*.json files are machine-written with a known flat
// shape; targeted key lookups keep this dependency-free. A key match is the
// literal `"key":` token — names never collide with values because every
// string value the writer emits is escaped.

bool find_key(const std::string& text, const std::string& key,
              std::size_t from, std::size_t& value_pos) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return false;
  std::size_t p = at + needle.size();
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
  if (p >= text.size()) return false;
  value_pos = p;
  return true;
}

bool get_string(const std::string& text, const std::string& key,
                std::string& out, std::size_t from = 0) {
  std::size_t p = 0;
  if (!find_key(text, key, from, p) || text[p] != '"') return false;
  ++p;
  std::string s;
  while (p < text.size() && text[p] != '"') {
    char c = text[p];
    if (c == '\\' && p + 1 < text.size()) {
      ++p;
      switch (text[p]) {
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          // Writer only emits \u00XX for control bytes.
          if (p + 4 < text.size()) {
            c = static_cast<char>(
                std::strtoul(text.substr(p + 1, 4).c_str(), nullptr, 16));
            p += 4;
          }
          break;
        }
        default: c = text[p];
      }
    }
    s += c;
    ++p;
  }
  if (p >= text.size()) return false;
  out = std::move(s);
  return true;
}

bool get_number(const std::string& text, const std::string& key, double& out,
                std::size_t from = 0) {
  std::size_t p = 0;
  if (!find_key(text, key, from, p)) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + p, &end);
  if (end == text.c_str() + p) return false;
  out = v;
  return true;
}

/// Exact 64-bit parse (seeds and FNV hashes overflow a double mantissa).
bool get_u64(const std::string& text, const std::string& key,
             std::uint64_t& out, std::size_t from = 0) {
  std::size_t p = 0;
  if (!find_key(text, key, from, p)) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str() + p, &end, 10);
  if (end == text.c_str() + p) return false;
  out = v;
  return true;
}

/// The single-line metrics snapshot: everything from `value_pos`'s opening
/// brace to its balanced closing brace (quote-aware).
bool get_object(const std::string& text, const std::string& key,
                std::string& out) {
  std::size_t p = 0;
  if (!find_key(text, key, 0, p) || text[p] != '{') return false;
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = p; i < text.size(); ++i) {
    const char c = text[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{') ++depth;
    if (c == '}' && --depth == 0) {
      out = text.substr(p, i - p + 1);
      return true;
    }
  }
  return false;
}

}  // namespace

std::string to_json_line(const LedgerRecord& r) {
  std::string out = "{";
  field_u64(out, "schema_version", static_cast<std::uint64_t>(r.schema_version));
  out += ", ";
  field_str(out, "ir_hash", r.ir_hash);
  out += ", ";
  field_str(out, "model", r.model);
  out += ", ";
  field_str(out, "backend_requested", r.backend_requested);
  out += ", ";
  field_str(out, "backend_used", r.backend_used);
  out += ", ";
  field_str(out, "fallback_reason", r.fallback_reason);
  out += ", ";
  field_u64(out, "seed", r.seed);
  out += ", ";
  field_u64(out, "fault_plan_hash", r.fault_plan_hash);
  out += ", ";
  field_u64(out, "threads", r.threads);
  out += ", ";
  field_num(out, "wall_s", r.wall_s);
  out += ", ";
  field_u64(out, "events", r.events);
  out += ", ";
  field_num(out, "events_per_s", r.events_per_s);
  out += ", ";
  field_num(out, "trials_per_s", r.trials_per_s);
  if (r.served_from_cache >= 0) {
    out += ", ";
    field_u64(out, "served_from_cache",
              static_cast<std::uint64_t>(r.served_from_cache));
  }
  out += ", \"metrics\": ";
  out += r.metrics_json.empty() ? "{}" : r.metrics_json;
  out += "}";
  return out;
}

bool parse_json_line(const std::string& line, LedgerRecord& out) {
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) return false;
  double v = 0.0;
  if (!get_number(line, "schema_version", v)) return false;
  const int version = static_cast<int>(v);
  if (version < kLedgerOldestReadableVersion ||
      version > kLedgerSchemaVersion) {
    return false;
  }
  LedgerRecord r;
  r.schema_version = version;
  get_string(line, "ir_hash", r.ir_hash);
  get_string(line, "model", r.model);
  get_string(line, "backend_requested", r.backend_requested);
  get_string(line, "backend_used", r.backend_used);
  get_string(line, "fallback_reason", r.fallback_reason);
  get_u64(line, "seed", r.seed);
  get_u64(line, "fault_plan_hash", r.fault_plan_hash);
  if (get_number(line, "threads", v)) r.threads = static_cast<unsigned>(v);
  get_number(line, "wall_s", r.wall_s);
  get_u64(line, "events", r.events);
  get_number(line, "events_per_s", r.events_per_s);
  get_number(line, "trials_per_s", r.trials_per_s);  // absent in v1 -> 0
  if (get_number(line, "served_from_cache", v)) {    // absent pre-v3 -> -1
    r.served_from_cache = v != 0.0 ? 1 : 0;
  }
  if (!get_object(line, "metrics", r.metrics_json)) r.metrics_json = "{}";
  out = std::move(r);
  return true;
}

Ledger::Ledger(std::string path, std::size_t capacity)
    : path_(std::move(path)), capacity_(capacity == 0 ? 1 : capacity) {
  tail_.reserve(capacity_ < 64 ? capacity_ : 64);
}

void Ledger::append(const LedgerRecord& r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tail_.size() < capacity_) {
    tail_.push_back(r);
  } else {
    tail_[head_] = r;
    head_ = (head_ + 1) % capacity_;
    wrapped_ = true;
  }
  if (!path_.empty()) {
    std::ofstream out(path_, std::ios::app);
    if (out) out << to_json_line(r) << '\n';
  }
}

std::vector<LedgerRecord> Ledger::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!wrapped_) return tail_;
  std::vector<LedgerRecord> out;
  out.reserve(tail_.size());
  for (std::size_t i = 0; i < tail_.size(); ++i) {
    out.push_back(tail_[(head_ + i) % tail_.size()]);
  }
  return out;
}

std::size_t Ledger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tail_.size();
}

Ledger& Ledger::global() {
  static Ledger* g = [] {
    const char* p = std::getenv("ECSIM_LEDGER");
    return new Ledger(p != nullptr ? std::string(p) : std::string());
  }();
  return *g;
}

std::vector<LedgerRecord> read_ledger_file(const std::string& path) {
  std::vector<LedgerRecord> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    LedgerRecord r;
    if (parse_json_line(line, r)) out.push_back(std::move(r));
  }
  return out;
}

CacheSummary summarize_cache(const std::vector<LedgerRecord>& records) {
  CacheSummary s;
  for (const LedgerRecord& r : records) {
    if (r.served_from_cache < 0) {
      ++s.untagged;
    } else if (r.served_from_cache > 0) {
      ++s.served;
    } else {
      ++s.computed;
    }
  }
  return s;
}

LedgerDiff diff_latest_against_bench(const std::vector<LedgerRecord>& records,
                                     const std::string& bench_json,
                                     const std::string& scenario,
                                     double threshold_pct) {
  LedgerDiff d;
  d.scenario = scenario;
  d.threshold_pct = threshold_pct;
  if (!get_string(bench_json, "model_ir_hash_" + scenario, d.ir_hash)) {
    d.message = "no committed model_ir_hash_" + scenario +
                " in the benchmark report";
    return d;
  }
  // The per-scenario figures live in the entry whose "scenario" matches;
  // bound the lookup at the next entry so figures cannot bleed across
  // scenarios.
  std::size_t at = 0;
  bool has_events = false;
  bool has_mc = false;
  while (true) {
    std::size_t p = 0;
    if (!find_key(bench_json, "scenario", at, p)) break;
    std::string name;
    if (get_string(bench_json, "scenario", name, at) && name == scenario) {
      std::size_t next = bench_json.size();
      std::size_t q = 0;
      if (find_key(bench_json, "scenario", p, q)) next = q;
      const std::string entry = bench_json.substr(p, next - p);
      has_events = get_number(entry, "native_best_events_per_s",
                              d.committed_events_per_s) ||
                   get_number(entry, "best_events_per_s",
                              d.committed_events_per_s);
      has_mc = get_number(entry, "mc_best_trials_per_s",
                          d.committed_trials_per_s);
      break;
    }
    at = p;
  }
  if (!has_events && !has_mc) {
    d.message = "no committed native_best_events_per_s, best_events_per_s "
                "or mc_best_trials_per_s for scenario '" +
                scenario + "'";
    return d;
  }
  const LedgerRecord* latest = nullptr;     // single-run events/s
  const LedgerRecord* latest_mc = nullptr;  // Monte Carlo trials/s
  for (const LedgerRecord& r : records) {
    if (r.ir_hash != d.ir_hash) continue;
    if (has_events && r.events_per_s > 0.0) latest = &r;
    if (has_mc && r.trials_per_s > 0.0) latest_mc = &r;
  }
  if (latest == nullptr && latest_mc == nullptr) {
    d.message = "no ledger record with ir_hash " + d.ir_hash +
                " to compare against";
    return d;
  }
  d.comparable = true;
  char buf[256];
  std::string msg = scenario + ":";
  if (latest != nullptr) {
    d.latest_events_per_s = latest->events_per_s;
    const double floor =
        d.committed_events_per_s * (1.0 - threshold_pct / 100.0);
    const bool reg = d.latest_events_per_s < floor;
    d.regression = d.regression || reg;
    std::snprintf(buf, sizeof buf,
                  " latest %.4g events/s vs committed %.4g (floor %.4g at "
                  "-%.3g%%) -> %s",
                  d.latest_events_per_s, d.committed_events_per_s, floor,
                  threshold_pct, reg ? "REGRESSION" : "ok");
    msg += buf;
  }
  if (latest_mc != nullptr) {
    d.latest_trials_per_s = latest_mc->trials_per_s;
    const double floor =
        d.committed_trials_per_s * (1.0 - threshold_pct / 100.0);
    const bool reg = d.latest_trials_per_s < floor;
    d.regression = d.regression || reg;
    std::snprintf(buf, sizeof buf,
                  "%s mc latest %.4g trials/s vs committed %.4g (floor %.4g "
                  "at -%.3g%%) -> %s",
                  latest != nullptr ? ";" : "", d.latest_trials_per_s,
                  d.committed_trials_per_s, floor, threshold_pct,
                  reg ? "REGRESSION" : "ok");
    msg += buf;
  }
  d.message = std::move(msg);
  return d;
}

}  // namespace ecsim::obs
