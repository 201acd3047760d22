#!/usr/bin/env python3
"""Design-lifecycle benchmark: build it and run one workload.

    python3 lifecycle_bench/run.py --workload <design_cycle|explore|montecarlo|service>
                                   --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary (and the ecsim
library it links) from source into .bench_build/ on first use, runs one
workload, and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 they are the per-layer metrics, and the
Perfetto trace of the traced run is kept in .bench_build/lifecycle_bench/traces/.
Per-layer metrics a workload does not exercise read 0. See README.md.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "lifecycle_bench")
BINARY = os.path.join(BUILD, "lifecycle_bench")
WORKLOADS = ("design_cycle", "explore", "montecarlo", "service")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = os.path.join(BUILD, ".configured")
    run = lambda cmd: subprocess.run(cmd, stdout=sys.stderr,
                                     stderr=sys.stderr).returncode == 0
    if not os.path.exists(configured):
        if not run(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"]):
            return False
        open(configured, "w").close()
    return run(["cmake", "--build", BUILD, "--target", "lifecycle_bench",
                "-j", jobs])


def fixed_layout():
    """Child pre-exec hook: turn off address-space randomization, so that
    code and heap placement do not differ from run to run (best effort)."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).personality(0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


def run_binary(args, out_dir):
    """Run the benchmark binary in its own process group; returns
    (returncode, stdout). Every process it started is gone on return."""
    env = dict(os.environ)
    env.pop("ECSIM_LEDGER", None)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spec-dir", os.path.join("examples", "specs"),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True,
                            preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        log("lifecycle_bench: run timed out")
    finally:
        # The forked daemon and its workers share the group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    if not build():
        log("lifecycle_bench: build failed")
        return 1

    out_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(out_dir, exist_ok=True)
    try:
        rc, out = run_binary(args, out_dir)
        trace_file = os.path.join(out_dir, args.workload + ".trace.json")
        trace_ok = True
        if args.trace:
            try:
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                trace_ok = len(events) > 0
                keep = os.path.join(BUILD, "traces")
                os.makedirs(keep, exist_ok=True)
                shutil.move(trace_file, os.path.join(keep, os.path.basename(trace_file)))
            except (OSError, ValueError, KeyError) as e:
                log("lifecycle_bench: trace not loadable: %s" % e)
                trace_ok = False
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = None
    for line in out.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if rc != 0 or result is None:
        log("lifecycle_bench: benchmark binary failed (exit %s)" % rc)
        return 1

    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for reason, n in sorted(result["failures"].items()):
        print("failure %6d  %s" % (n, reason))
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            value = float(measured[name]["value"])
        elif args.trace:
            value = 0.0  # layer not exercised by this workload
        else:
            log("lifecycle_bench: end-to-end metric %s missing" % name)
            return 1
        if not math.isfinite(value):
            log("lifecycle_bench: metric %s is not finite" % name)
            return 1
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and trace_ok,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
