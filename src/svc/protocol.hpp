// Wire protocol of the sweep service (DESIGN.md §3.9): length-prefixed
// frames over a unix-domain stream socket, each frame carrying one Fields
// message — a flat list of (key, raw-bytes) pairs with byte-counted values,
// so spec texts and binary payloads travel unescaped.
//
// Everything the daemon caches or ships is encoded BIT-EXACTLY: result-cell
// doubles travel as their 64-bit IEEE bit patterns (%016llx), never through
// a decimal round-trip, which is what lets bench_p9_service hard-check that
// a daemon-served grid is byte-identical to the serial in-process reference
// at any worker count (the determinism contract of PRs 3/5/8 makes the two
// computations identical; the codec must not be the weak link).
//
// One request verb family mirrors the in-process sweep API (par/sweep.hpp,
// par/fault_sweep.hpp, par/monte_carlo.hpp); `Request` is the canonical
// parameter set both sides build cache keys from (svc/cache_key.hpp). Each
// work verb is one entry of the descriptor table in svc/work_verb.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "par/fault_sweep.hpp"
#include "par/monte_carlo.hpp"
#include "par/network_sweep.hpp"
#include "par/sweep.hpp"

namespace ecsim::svc {

/// Frame cap: a response carrying a few thousand cells is ~1 MB; anything
/// beyond this is a corrupted length prefix, not a real message.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 26;

// ---- framing ---------------------------------------------------------------

/// Write one frame (4-byte little-endian length + payload). False on any
/// short write / EPIPE (caller treats the peer as gone).
bool write_frame(int fd, const std::string& payload);

/// Read one frame into `out`. False on EOF, transport error or a length
/// prefix beyond kMaxFrameBytes.
bool read_frame(int fd, std::string& out);

// ---- Fields: the flat key/value message ------------------------------------

/// Ordered (key, value) list; values are raw byte strings. Serialization is
/// `key<SP><len>\n<bytes>\n` per field — no escaping, so values may contain
/// anything including newlines and NUL.
class Fields {
 public:
  void set(const std::string& key, std::string value);
  void set_u64(const std::string& key, std::uint64_t v);
  /// Bit-exact double: stored as the 64-bit pattern in hex.
  void set_bits(const std::string& key, double v);
  /// Comma-separated hexfloat list (exact for finite values — request axes).
  void set_list(const std::string& key, const std::vector<double>& vs);

  const std::string* get(const std::string& key) const;
  bool get_u64(const std::string& key, std::uint64_t& v) const;
  bool get_bits(const std::string& key, double& v) const;
  bool get_list(const std::string& key, std::vector<double>& vs) const;

  std::string serialize() const;
  static bool parse(const std::string& text, Fields& out);

  std::size_t size() const { return kv_.size(); }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

// ---- bit-exact scalar/list helpers (shared with the cell codecs) -----------

std::string bits_of(double v);              // "%016llx" of the IEEE pattern
bool double_of(const std::string& s, double& v);
std::string hexfloat(double v);             // "%a" — canonical request-param form

/// FNV-1a over bytes — the same construction ir::hash and fault::hash use.
std::uint64_t fnv1a(const std::string& bytes);

// ---- requests --------------------------------------------------------------

enum class Verb {
  kSweepTiming,   ///< latency×jitter grid cells on the DC-servo loop
  kSweepArch,     ///< bus-bandwidth×WCET grid cells
  kSweepNetwork,  ///< bus-load×scenario (CAN/TDMA) grid cells, EXP-N1
  kFaultSweep,    ///< loss×delay grid cells (deterministic fault plans)
  kFaultMc,       ///< Monte Carlo dropout trials (one unit per trial)
  kVmMc,          ///< executive-VM Monte Carlo over an uploaded spec text
  kPing,
  kStats,         ///< cache/worker counters snapshot
  kKillWorker,    ///< test aid: asks the daemon to crash one worker process
};

const char* to_string(Verb v);
bool parse_verb(const std::string& s, Verb& out);

/// Canonical request parameter set. The daemon decomposes a request into
/// independently cacheable WORK UNITS: one grid cell (sweeps), one trial
/// (fault Monte Carlo) or the whole run (VM Monte Carlo, whose statistics
/// are reduced across trials and only meaningful as a set).
struct Request {
  Verb verb = Verb::kPing;
  std::string backend = "interp";  // "interp" | "native"
  double ts = 0.01;                // servo-loop sampling period
  double t_end = 1.0;              // servo-loop horizon
  std::uint64_t seed = 1;          // loop seed / fault grid seed / MC base seed
  std::vector<double> rows, cols;  // sweep axes (row-major cell order)
  double loss = 0.1;               // kFaultMc loss rate
  std::size_t trials = 0;          // kFaultMc / kVmMc
  std::size_t iterations = 50;     // kVmMc iterations per trial
  std::string spec_text;           // kVmMc uploaded spec

  Fields to_fields() const;
  /// Also refuses a request with more units than one reply frame can carry.
  static bool from_fields(const Fields& f, Request& out, std::string& err);

  /// Number of independently cacheable work units.
  std::size_t units() const;
};

// ---- responses -------------------------------------------------------------

struct ResponseMeta {
  bool ok = false;
  std::string error;
  std::string model_hash;     // loop IR hash / "spec:0x…" content hash
  std::size_t cache_hits = 0;
  std::size_t cache_units = 0;
  bool served_from_cache = false;  // every unit came from the result cache
  std::size_t redispatches = 0;    // worker-crash recoveries in this request
};

void meta_to_fields(const ResponseMeta& m, Fields& f);
ResponseMeta meta_from_fields(const Fields& f);

/// Send `reply` as one frame. A reply too large to frame goes out as an
/// error-status frame with the same metadata instead, so the peer is never
/// left waiting for a frame that was not sent. False when the peer is gone.
bool write_reply(int fd, const Fields& reply);

// ---- payload codecs --------------------------------------------------------
// One work unit <-> one payload string. Counted blob lists pack the units of
// a request into one response field.

std::string encode_blob_list(const std::vector<std::string>& blobs);
bool decode_blob_list(const std::string& text,
                      std::vector<std::string>& blobs);

std::string encode_cell(const sweep::SweepCell& c);
bool decode_cell(const std::string& s, sweep::SweepCell& c);
std::string encode_cell(const sweep::FaultCell& c);
bool decode_cell(const std::string& s, sweep::FaultCell& c);
std::string encode_cell(const sweep::NetworkCell& c);
bool decode_cell(const std::string& s, sweep::NetworkCell& c);

/// VM Monte Carlo statistics. Wall-clock fields (wall_s, trials_per_s,
/// batch_width) are NOT encoded — a cached result is the statistics, not
/// the timing of whoever computed it first.
std::string encode_mc(const sweep::MonteCarloResult& r);
bool decode_mc(const std::string& s, sweep::MonteCarloResult& r);

}  // namespace ecsim::svc
