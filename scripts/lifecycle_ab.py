#!/usr/bin/env python3
"""Interleaved A/B of the design-lifecycle benchmark between two checkouts.

    python3 scripts/lifecycle_ab.py --base DIR --change DIR \\
        [--workload design_cycle] [--seeds 1 2] [--pairs 5] [--seconds 18] \\
        [--base-label L] [--change-label L] [--out BENCH_v1.json]

Each DIR is the root of a checkout (a `git archive` or `git clone` of the
commit to measure). For every seed the script runs `lifecycle_bench/run.py`
in the two checkouts alternately, `--pairs` times, swapping which one goes
first on every pair so slow drift of the host hits both sides equally. It
then makes one traced run (`--trace 1`) per side and seed for the per-layer
metrics, and sums the span durations of its Perfetto trace by span name
(where the wall time went). It prints a per-metric summary (medians, change/base ratio, pairs
the change won) and, with --out, stores the runs under the workload's name
in a JSON record stamped with the host it ran on. An existing record keeps
its other workloads, so one file can collect several invocations.

It fails (exit 1) if any run reports "correct": false, if one side's
`attempted`/`failed` counts change between its runs of a seed, or if the
two sides attempted a different number of operations or the change failed
more of them than the base. A change that fails fewer (a mended defect)
passes. Whenever the two sides' counts differ, both are printed.
"""
import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys

# Per-layer metrics worth keeping in the record (the traced run prints more).
TRACED = ("exec.vm_ms_p50", "exec.conformance_ms_p50", "aaa.adequate_ms_p50",
          "aaa.codegen_ms_p50", "io.parse_ms_p50", "latency.analyze_ms_p50",
          "exec.comms_executed", "exec.conformance_violations")


def run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("lifecycle_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"lifecycle_ab: {' '.join(cmd)} failed in {root}")
    return json.loads(lines[-1])


def span_totals_ms(root, workload):
    """Total duration per span name in the traced run's Perfetto trace."""
    path = os.path.join(root, ".bench_build", "lifecycle_bench", "traces",
                        f"{workload}.trace.json")
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError):
        return {}
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    totals = {}
    for e in events:
        if e.get("ph") == "X":
            totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] / 1e3
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def values(run_json):
    return {k: v["value"] for k, v in run_json["metrics"].items()}


def host():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                            text=True, check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        cc = ""
    return {"host": socket.gethostname(), "cpu": cpu,
            "logical_cpus": os.cpu_count(), "kernel": platform.release(),
            "compiler": cc, "python": platform.python_version()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--base-label", default="base")
    ap.add_argument("--change-label", default="change")
    ap.add_argument("--workload", default="design_cycle")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--out")
    args = ap.parse_args()

    sides = {"base": args.base, "change": args.change}
    record = {"experiment": "lifecycle A/B", "workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record.update(host())
    record["labels"] = {"base": args.base_label, "change": args.change_label}
    entry = {"seconds": args.seconds, "pairs": args.pairs, "seeds": []}
    ok = True
    for seed in args.seeds:
        runs = {"base": [], "change": []}
        counts = {}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                r = run(sides[side], args.workload, seed, args.seconds, 0)
                ok &= r["correct"] is True
                counts.setdefault(side, (r["attempted"], r["failed"]))
                if counts[side] != (r["attempted"], r["failed"]):
                    ok = False
                runs[side].append(values(r))
                print(f"seed {seed} pair {pair} {side}: "
                      f"p99 {runs[side][-1]['latency_p99_ms']:.2f} ms",
                      file=sys.stderr, flush=True)
        (b_att, b_fail), (c_att, c_fail) = counts["base"], counts["change"]
        if counts["base"] != counts["change"]:
            print(f"seed {seed} attempted/failed: base {b_att}/{b_fail} "
                  f"change {c_att}/{c_fail}")
        if c_att != b_att or c_fail > b_fail:
            ok = False
        traced, spans = {}, {}
        for side in ("base", "change"):
            traced[side] = values(run(sides[side], args.workload, seed,
                                      args.seconds, 1))
            spans[side] = span_totals_ms(sides[side], args.workload)
        summary = {}
        for name in runs["base"][0]:
            b = [r[name] for r in runs["base"]]
            c = [r[name] for r in runs["change"]]
            lower = name not in ("ops_per_s", "sim_s_per_host_s")
            wins = sum((ci < bi) if lower else (ci > bi) for bi, ci in zip(b, c))
            q = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
            summary[name] = {
                "base_median": statistics.median(b),
                "change_median": statistics.median(c),
                "base_iqr": q[2] - q[0],
                "ratio": statistics.median(c) / statistics.median(b)
                         if statistics.median(b) else None,
                "change_better_pairs": wins,
                "base": b, "change": c}
        entry["seeds"].append({
            "seed": seed,
            "attempted_failed": {s: list(v) for s, v in counts.items()},
            "end_to_end": summary,
            "traced": {s: {k: traced[s].get(k) for k in TRACED}
                       for s in traced},
            "traced_span_totals_ms": spans})
        for name, m in summary.items():
            print(f"seed {seed} {name:18s} base {m['base_median']:.4g} "
                  f"change {m['change_median']:.4g} ratio {m['ratio'] or 0:.3f} "
                  f"better {m['change_better_pairs']}/{args.pairs}")
        for k in TRACED:
            print(f"seed {seed} {k:30s} base {traced['base'].get(k)} "
                  f"change {traced['change'].get(k)}")
        for name, ms in spans["base"].items():
            print(f"seed {seed} span {name:28s} base {ms:10.1f} ms "
                  f"change {spans['change'].get(name, 0.0):10.1f} ms")
    entry["all_correct_and_counts_ok"] = ok
    record["workloads"][args.workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
