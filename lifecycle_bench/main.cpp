// lifecycle_bench — design-lifecycle benchmark of the ecsim flow.
//
//   lifecycle_bench --workload <design_cycle|explore|montecarlo|service>
//                   --seed N --seconds S --trace 0|1
//                   --spec-dir DIR --out-dir DIR
//
// Runs one closed-loop workload for S seconds on inputs generated from the
// seed, checks its outputs, and prints human-readable lines followed by one
// "result" JSON line: op accounting with failure reasons, the output-check
// verdict, provenance and the metrics (end-to-end with --trace 0, per-layer
// with --trace 1). run.py builds this binary and turns that line into the
// benchmark's result. See README.md for the workloads and metrics.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "blocks/examples.hpp"
#include "ir/ir.hpp"
#include "obs/trace_json.hpp"
#include "par/sweep.hpp"
#include "sim/build_ir.hpp"
#include "translate/cosim.hpp"

#include "common.hpp"

using namespace ecsim;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lifecycle_bench --workload "
               "<design_cycle|explore|montecarlo|service> --seed N "
               "--seconds S --trace 0|1 --spec-dir DIR --out-dir DIR\n");
  return 2;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += obs::json_escape(s);
  out += '"';
  return out;
}

/// Build and run identity stamped into every result: a number is only
/// comparable with another of the same host shape, toolchain and models.
std::string provenance(const lcb::Options& o) {
  sim::Model servo = blocks::examples::make_servo();
  sim::Model chains = blocks::examples::make_chains(200);
  std::string p = "{";
  p += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  p += ", \"compiler\": " + json_str(LCB_COMPILER);
  p += ", \"build_type\": " + json_str(LCB_BUILD_TYPE);
  p += ", \"simd\": " + json_str(LCB_SIMD);
  p += ", \"workload\": " + json_str(o.workload);
  p += ", \"seed\": " + std::to_string(o.seed);
  p += ", \"seconds\": " + std::to_string(o.seconds);
  p += ", \"trace\": " + std::string(o.trace ? "1" : "0");
  p += ", \"ir_hash_servo_loop\": " +
       json_str(ir::hash_hex(translate::loop_ir(sweep::servo_loop())));
  p += ", \"ir_hash_servo_rk4\": " +
       json_str(ir::hash_hex(sim::build_ir(servo, "servo_rk4")));
  p += ", \"ir_hash_chains_200\": " +
       json_str(ir::hash_hex(sim::build_ir(chains, "chains_200")));
  const char* ledger = std::getenv("ECSIM_LEDGER");
  p += ", \"ledger\": " + json_str(ledger == nullptr ? "unset" : ledger);
  p += "}";
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  lcb::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--spec-dir") {
      o.spec_dir = v;
    } else if (k == "--out-dir") {
      o.out_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || o.seconds <= 0.0 || o.spec_dir.empty()) return usage();

  // Isolation: no ledger file, and native modules go to a private cache
  // that is removed afterwards (never the user's shared cache).
  ::unsetenv("ECSIM_LEDGER");
  const std::string native_cache =
      o.out_dir + "/native-cache-" + std::to_string(::getpid());
  ::setenv("ECSIM_NATIVE_CACHE", native_cache.c_str(), 1);
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_cache{native_cache};

  lcb::Result r;
  try {
    if (o.workload == "design_cycle") {
      lcb::run_design_cycle(o, r);
    } else if (o.workload == "explore") {
      lcb::run_explore(o, r);
    } else if (o.workload == "montecarlo") {
      lcb::run_montecarlo(o, r);
    } else if (o.workload == "service") {
      lcb::run_service(o, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lifecycle_bench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %llu: %zu ops attempted, %zu failed "
              "(failed_share %.4f failed/attempted)\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              r.attempted, r.failed,
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0);
  for (const auto& [reason, n] : r.failures) {
    std::printf("  failed: %zu x %s\n", n, reason.c_str());
  }
  std::printf("output checks: %zu run, %zu failed\n", r.checks,
              r.check_failures.size());
  for (const std::string& c : r.check_failures) {
    std::printf("  check failed: %s\n", c.c_str());
  }
  for (const lcb::Metric& m : r.metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string line = "{\"correct\": ";
  line += r.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"failures\": {";
  bool first = true;
  for (const auto& [reason, n] : r.failures) {
    line += (first ? "" : ", ") + json_str(reason) + ": " + std::to_string(n);
    first = false;
  }
  line += "}, \"provenance\": " + provenance(o) + ", \"metrics\": {";
  first = true;
  char buf[64];
  for (const lcb::Metric& m : r.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    line += (first ? "" : ", ") + json_str(m.name) + ": {\"value\": " + buf +
            ", \"unit\": " + json_str(m.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("result %s\n", line.c_str());
  return 0;
}
