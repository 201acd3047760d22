// The contract between the host process and a generated model .so. Both
// sides are compiled from this same header, by the same compiler, with the
// same flags (the build bakes its own toolchain into the backend — see
// src/CMakeLists.txt), so passing sim::Trace across the boundary is layout-
// safe. The ABI is versioned anyway: the host refuses a module whose
// ECSIM_NATIVE_ABI doesn't match, and the hash-keyed .so cache keys on the
// ABI + flags, so stale artifacts are never loaded.
//
// ABI v2 adds NativeObsTable: a C callback table through which the generated
// module emits telemetry (tracer spans/instants, counters, gauges,
// histograms) into the host's obs::Tracer / obs::MetricsRegistry without the
// module linking against the obs library. A null table pointer is the
// zero-cost path; the bridge lives in backend/obs_abi.{hpp,cpp}.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ecsim::backend {

inline constexpr int kNativeAbiVersion = 2;

/// Sentinel for "span/instant has no argument" (mirror of obs::kNoArg).
inline constexpr std::uint32_t kNativeObsNoArg = 0xffffffffu;

/// C callback table bridging generated-module telemetry into the host's
/// obs::Tracer / obs::MetricsRegistry (built by backend::make_obs_table).
/// All function pointers are non-null when the corresponding ctx is non-null;
/// a wholly null member (tracer == nullptr, metrics == nullptr) means that
/// side of observability is absent and the module must not call through it.
/// Handles returned by the resolvers are stable for the process lifetime
/// (MetricsRegistry owns node-based instruments).
struct NativeObsTable {
  // --- Tracer side ---------------------------------------------------------
  void* tracer = nullptr;  ///< opaque obs::Tracer*; null → no tracer attached
  /// Nonzero when the tracer is compiled in, attached and enabled; the module
  /// latches this once per run (mirror of obs::active).
  int (*tracer_enabled)(void* tracer) = nullptr;
  /// Intern a NUL-terminated name, returning its stable id.
  std::uint32_t (*intern)(void* tracer, const char* name) = nullptr;
  /// Register a track. `domain` is obs::Domain's numeric value
  /// (0 = wall-clock, 1 = sim-time).
  std::uint32_t (*track)(void* tracer, const char* name, int domain) = nullptr;
  /// Wall-clock timestamp in microseconds (obs::Tracer::now_us).
  double (*now_us)(void* tracer) = nullptr;
  /// Complete span [t0,t1] on `track`; arg_name = 0xffffffff means "no arg".
  void (*span)(void* tracer, std::uint32_t name, std::uint32_t track,
               double t0, double t1, std::uint32_t arg_name,
               double arg) = nullptr;
  /// Instant at `ts` on `track` (sim-domain timestamps via obs::sim_us).
  void (*instant)(void* tracer, std::uint32_t name, std::uint32_t track,
                  double ts, std::uint32_t arg_name, double arg) = nullptr;

  // --- Metrics side --------------------------------------------------------
  void* metrics = nullptr;  ///< opaque obs::MetricsRegistry*; null → absent
  /// Resolve instruments by name; the returned handles are stable pointers.
  void* (*counter)(void* metrics, const char* name) = nullptr;
  void* (*gauge)(void* metrics, const char* name) = nullptr;
  void* (*histogram)(void* metrics, const char* name) = nullptr;
  void (*counter_add)(void* counter, std::uint64_t n) = nullptr;
  void (*gauge_max)(void* gauge, std::uint64_t v) = nullptr;
  void (*histogram_observe)(void* histogram, double v) = nullptr;
};

/// POD mirror of sim::SimOptions (observability rides along through `obs`
/// since ABI v2).
struct NativeRunOptions {
  double end_time = 1.0;
  int integrator_kind = 0;  // sim::IntegratorKind numeric value
  double max_step = 1e-3;
  double rel_tol = 1e-8;
  double abs_tol = 1e-10;
  double min_step = 1e-12;
  std::uint64_t seed = 1;
  std::size_t max_events = 20'000'000;
  int full_refresh = 0;
  std::size_t reserve_events = 0;
  std::size_t reserve_signals = 0;
  std::size_t reserve_queue = 0;
  /// Observability callback table (borrowed, may be null). Null, or a table
  /// whose tracer/metrics are both null, runs the module with telemetry
  /// compiled to nothing — the guarded ≤2% attached-but-disabled overhead
  /// only concerns a non-null table whose tracer reports disabled.
  const NativeObsTable* obs = nullptr;
};

}  // namespace ecsim::backend

extern "C" {

/// ABI version the module was generated against (kNativeAbiVersion).
/// Symbol: resolved with dlsym; a missing symbol means "not an ecsim model".
using EcsimNativeAbiFn = int (*)();

/// Canonical IR hash (ir::hash_hex) of the model the module was generated
/// from. The host refuses a module whose hash differs from the IR in hand.
using EcsimNativeHashFn = const char* (*)();

/// Run the model: `trace` is an ecsim::sim::Trace* the module clears,
/// re-registers block names on and fills; `events_out` receives the
/// dispatched-event count. Returns 0 on success; on failure copies a
/// NUL-terminated message into err (truncated to errcap) and returns
/// nonzero. Exceptions never cross the boundary.
using EcsimNativeRunFn = int (*)(const ecsim::backend::NativeRunOptions* opts,
                                 void* trace, std::size_t* events_out,
                                 char* err, std::size_t errcap);

}  // extern "C"
