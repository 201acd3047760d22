#include "backend/backend.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "backend/native_abi.hpp"
#include "backend/native_backend.hpp"
#include "backend/native_codegen.hpp"
#include "backend/obs_abi.hpp"
#include "blocks/to_model.hpp"
#include "obs/ledger.hpp"
#include "sim/build_ir.hpp"

namespace ecsim::backend {

namespace {

void count(obs::MetricsRegistry* m, const std::string& name) {
  if (m != nullptr) m->counter(name).add();
}

RunResult run_interp(sim::Model& model, const RunOptions& o) {
  sim::Simulator s(model, o.sim);
  s.run();
  RunResult r;
  r.trace = std::move(s.trace());
  r.events_dispatched = s.events_dispatched();
  r.used = Kind::kInterp;
  count(o.metrics, "backend.interp.runs");
  return r;
}

RunResult run_native_module(const NativeModule& mod, const RunOptions& o) {
  NativeRunOptions n;
  n.end_time = o.sim.end_time;
  n.integrator_kind = static_cast<int>(o.sim.integrator.kind);
  n.max_step = o.sim.integrator.max_step;
  n.rel_tol = o.sim.integrator.rel_tol;
  n.abs_tol = o.sim.integrator.abs_tol;
  n.min_step = o.sim.integrator.min_step;
  n.seed = o.sim.seed;
  n.max_events = o.sim.max_events;
  n.full_refresh = o.sim.full_refresh ? 1 : 0;
  n.reserve_events = o.sim.reserve_events;
  n.reserve_signals = o.sim.reserve_signals;
  n.reserve_queue = o.sim.reserve_queue;
  // ABI v2: attached observability rides into the module through the
  // callback table (stack-lifetime — the table only borrows the host's
  // tracer/registry for this one call). A run without obs passes no table
  // and the module's hooks cost one null test each.
  const NativeObsTable table = make_obs_table(o.sim.tracer, o.sim.metrics);
  if (table.tracer != nullptr || table.metrics != nullptr) n.obs = &table;

  RunResult r;
  std::size_t events = 0;
  char err[1024] = {0};
  const int rc = mod.run(&n, &r.trace, &events, err, sizeof err);
  if (rc != 0) {
    // A loaded module failing is a model-semantic error (max_events, a
    // sampler misbehaving, ...) that the interpreter would throw too.
    throw std::runtime_error(err[0] != '\0' ? err
                                            : "native model: run failed");
  }
  r.events_dispatched = events;
  r.used = Kind::kNative;
  count(o.metrics, "backend.native.runs");
  return r;
}

/// The native attempt, shared by run() and run_ir(). Returns the result on
/// success; on any non-semantic obstacle sets `reason` and returns nothing.
/// `ir_hash_out` receives the IR hash whenever lowering succeeded (for the
/// ledger record, even if a later stage fell back).
template <class MakeIr>
std::optional<RunResult> try_native(MakeIr&& make_ir, const RunOptions& o,
                                    std::string& reason,
                                    std::string& ir_hash_out) {
  const ir::Model* irm = nullptr;
  try {
    irm = make_ir();
  } catch (const std::exception& ex) {
    reason = std::string("codegen: lowering to IR failed: ") + ex.what();
    return std::nullopt;
  }
  ir_hash_out = ir::hash_hex(*irm);
  if (native_disabled()) {
    reason = "disabled: ECSIM_NATIVE_DISABLE is set";
    return std::nullopt;
  }
  if (!ir::fully_described(*irm)) {
    reason = "opaque: model contains blocks the IR cannot regenerate";
    return std::nullopt;
  }
  std::string source;
  try {
    source = generate_native_source(*irm);
  } catch (const std::exception& ex) {
    reason = std::string("codegen: ") + ex.what();
    return std::nullopt;
  }
  const NativeModule* mod = nullptr;
  try {
    mod = &load_native_module(*irm, source);
  } catch (const std::exception& ex) {
    reason = std::string("toolchain: ") + ex.what();
    return std::nullopt;
  }
  return run_native_module(*mod, o);
}

std::string category_of(const std::string& reason) {
  const auto colon = reason.find(':');
  return colon == std::string::npos ? reason : reason.substr(0, colon);
}

/// Every run stamps the process ledger (obs/ledger.hpp) — the "why did this
/// run the way it did, and how fast" record the methodology's iteration
/// comparisons read back.
void stamp_ledger(const RunOptions& o, const RunResult& r,
                  const std::string& ir_hash, double wall_s) {
  obs::LedgerRecord rec;
  rec.ir_hash = ir_hash;
  rec.model = o.model_name;
  rec.backend_requested = to_string(o.kind);
  rec.backend_used = to_string(r.used);
  rec.fallback_reason = r.fallback_reason;
  rec.seed = o.sim.seed;
  rec.fault_plan_hash = o.fault_plan_hash;
  rec.threads = o.threads;
  rec.wall_s = wall_s;
  rec.events = r.events_dispatched;
  rec.events_per_s =
      wall_s > 0.0 ? static_cast<double>(r.events_dispatched) / wall_s : 0.0;
  if (o.sim.metrics != nullptr) {
    // The registry's JSON is pretty-printed; a ledger record is one line.
    std::string mj = o.sim.metrics->to_json();
    std::string flat;
    flat.reserve(mj.size());
    for (char c : mj) {
      if (c != '\n' && c != '\r') flat += c;
    }
    rec.metrics_json = std::move(flat);
  }
  obs::Ledger::global().append(rec);
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

RunResult run(sim::Model& model, const RunOptions& opts) {
  const Clock::time_point t0 = Clock::now();
  std::string ir_hash;
  if (opts.kind == Kind::kInterp) {
    RunResult r = run_interp(model, opts);
    stamp_ledger(opts, r, ir_hash, seconds_since(t0));
    return r;
  }
  std::string reason;
  ir::Model irm;
  auto make_ir = [&]() -> const ir::Model* {
    irm = sim::build_ir(model);
    return &irm;
  };
  if (auto r = try_native(make_ir, opts, reason, ir_hash)) {
    stamp_ledger(opts, *r, ir_hash, seconds_since(t0));
    return std::move(*r);
  }
  count(opts.metrics, "backend.fallback." + category_of(reason));
  RunResult r = run_interp(model, opts);
  r.fallback_reason = reason;
  stamp_ledger(opts, r, ir_hash, seconds_since(t0));
  return r;
}

RunResult run_ir(const ir::Model& irm, const RunOptions& opts) {
  const Clock::time_point t0 = Clock::now();
  std::string reason;
  std::string ir_hash = ir::hash_hex(irm);
  if (opts.kind == Kind::kNative) {
    auto make_ir = [&]() -> const ir::Model* { return &irm; };
    if (auto r = try_native(make_ir, opts, reason, ir_hash)) {
      stamp_ledger(opts, *r, ir_hash, seconds_since(t0));
      return std::move(*r);
    }
    count(opts.metrics, "backend.fallback." + category_of(reason));
  }
  sim::Model model = blocks::to_model(irm);
  RunResult r = run_interp(model, opts);
  r.fallback_reason = reason;
  stamp_ledger(opts, r, ir_hash, seconds_since(t0));
  return r;
}

}  // namespace ecsim::backend
