#!/usr/bin/env python3
"""OpAD benchmark runner.

Builds the benchmark binary from the library sources, runs one workload,
checks its outputs and prints one JSON result line:

    python3 perfbench/run.py --workload detect --seed 3 --seconds 32 --trace 0

Workloads (see BENCHMARK.json): detect, pipeline, stream, each with two
pool lanes (OPAD_THREADS=2). With --trace 0 the result holds every
end-to-end metric; with --trace 1 every per-layer metric (a layer the
workload does not exercise reads 0). The traced detect run also serves
the digits model behind DetectionService under open-loop load, for the
serve.* layers.

End-to-end metrics, on every workload:
    setup_s        wall seconds of one workload construction.
    queries_per_s  model queries per wall second: the campaign (detect),
                   the Figure-1 loop (pipeline), the streaming leg
                   (stream).
    rows_per_s     input rows per wall second: seeds attacked (detect,
                   pipeline), stream rows (stream).
    peak_rss_kb    process peak resident set.

How times are taken. Each rate is the work of the run's measuring phase
(whole cycles over the input variants) over the phase's wall time with
the host's steal taken out: the benchmark runs on virtual CPUs of a
shared host, whose hypervisor takes 30-50% of their time away in busy
phases that last minutes (steal, /proc/stat), so the wall time is scaled
by the process's CPU time over CPU plus steal time. Idle pool lanes still
count, so thread scaling shows. setup_s is the mean construction time on
one pool lane, scaled the same way. An untraced measurement runs the
binary SUB_RUNS times in turn, each for a share of --seconds, and
reports the median of each metric, so one process that lands in a slow
phase of the host does not set the result.

Inputs: detect and pipeline have 8 input variants; a run cycles through
all of them, whole cycles, starting at variant seed % 8 (a traced run
uses that variant alone). stream visits variants in the same order, one
leg each, as many as fit.

Correctness gate: the binary reports an exact payload of its outputs per
variant, which must equal the values pinned in pins.json; in the traced
detect run every served result must equal the offline scoring of the same
rows. A run that fails the gate prints correct=false, no metrics, and
exits 1.

Other modes:
    --smoke          all workloads, untraced and traced, at seconds-scale
                     sizes; fails if the gate fails or a metric is missing.
    --record-pins    re-measure pins.json (at 1 and 4 threads, which must
                     agree), for all pinned workloads or the --workload
                     given. Only for a deliberate change of the payload.

Everything the benchmark writes stays in the checkout: the build in
.bench_build/ and per-run reports in .bench_out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "opad_perf")
PINS = os.path.join(HERE, "pins.json")

# Two pool lanes: on a shared 4-vCPU host the pipeline's rate spread
# 0.12 between runs at four lanes and 0.04 at two, steal taken out in
# both (a fork-join waits on whichever vCPU the host took away).
THREADS = {"detect": 2, "pipeline": 2, "stream": 2}
# An untraced measurement is this many processes in turn, each measuring
# for a share of --seconds; end-to-end metrics are their medians.
SUB_RUNS = 3
# Wall-time limit of one measurement, all its sub-runs together.
RUN_TIMEOUT_S = 165


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    env = build_env()
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "opad_perf",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return False
    return True


def commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(workload, seed, seconds, trace, threads=None, smoke=False,
               record=False, timeout=RUN_TIMEOUT_S):
    env = build_env()
    env["OPAD_THREADS"] = str(threads or THREADS[workload])
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if record:
        cmd.append("--record")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {timeout} s")
        return None
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log(f"{workload}: exited with {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: unreadable output")
        return None


def load_json(path):
    with open(path) as f:
        return json.load(f)


def gate(report, smoke, pins):
    """Returns the list of correctness failures of one binary report."""
    problems = list(report["errors"])
    workload = report["workload"]
    mode = "smoke" if smoke else "full"
    table = pins.get(mode, {}).get(workload, {})
    if not report["payloads"]:
        problems.append(f"{workload} reported no payload")
    for variant, payload in sorted(report["payloads"].items()):
        expected = table.get(variant)
        if expected is None:
            problems.append(f"no pinned payload for {workload} variant "
                            f"{variant} ({mode})")
            continue
        for key in sorted(set(expected) | set(payload)):
            if payload.get(key) != expected.get(key):
                problems.append(f"variant {variant}: {key} = "
                                f"{payload.get(key)}, pinned "
                                f"{expected.get(key)}")
    return problems


def result_metrics(report, spec, trace):
    """Maps the binary's metrics onto BENCHMARK.json; returns (metrics,
    missing)."""
    out, missing = {}, []
    if trace:
        for m in spec["per_layer"]:
            value = report["layers"].get(m["name"], 0.0)
            if value is None:
                missing.append(m["name"])
                continue
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            value = report["metrics"].get(m["name"])
            if value is None or not math.isfinite(value) or value <= 0:
                missing.append(m["name"])
                continue
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, missing


def save(report, name):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)


def merge(reports):
    """One report from the sub-runs of a measurement: every end-to-end
    metric is the median over the sub-runs, counts are summed."""
    merged = dict(reports[0])
    merged["attempted"] = sum(r["attempted"] for r in reports)
    merged["failed"] = sum(r["failed"] for r in reports)
    merged["metrics"] = {}
    for name in reports[0]["metrics"]:
        values = [r["metrics"].get(name) for r in reports]
        if all(v is not None for v in values):
            merged["metrics"][name] = statistics.median(values)
    merged["sub_runs"] = [{"metrics": r["metrics"], "info": r["info"]}
                          for r in reports]
    return merged


def measure(args, spec, pins):
    count = 1 if args.trace else SUB_RUNS
    reports = []
    for _ in range(count):
        report = run_binary(args.workload, args.seed, args.seconds / count,
                            args.trace, timeout=RUN_TIMEOUT_S / count)
        if report is None:
            return 1
        reports.append(report)
    # A failure the sub-runs share is listed once.
    problems = list(dict.fromkeys(p for r in reports
                                  for p in gate(r, False, pins)))
    report = merge(reports)
    report["host"]["commit"] = commit()
    metrics, missing = result_metrics(report, spec, args.trace)
    problems += [f"metric {name} missing or not positive" for name in missing]
    report["gate"] = problems
    save(report, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    print("# host " + json.dumps(report["host"], sort_keys=True))
    for p in problems:
        print("# gate: " + p)
    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


def smoke(spec, pins):
    ok = True
    for workload in THREADS:
        for trace in (False, True):
            report = run_binary(workload, 0, 1, trace, smoke=True)
            if report is None:
                ok = False
                continue
            problems = gate(report, True, pins)
            metrics, missing = result_metrics(report, spec, trace)
            if trace:
                wanted = [m["name"] for m in spec["per_layer"]
                          if m["name"] not in report["layers"]
                          and applies(m["name"], workload)]
                missing += wanted
            problems += [f"metric {n} missing" for n in missing]
            status = "ok" if not problems else "FAIL"
            log(f"smoke {workload} trace={int(trace)}: {status} "
                f"({len(metrics)} metrics)")
            for p in problems:
                log("  " + p)
            ok = ok and not problems
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


# Per-layer metrics each workload must produce in its traced run (the
# rest read 0 there: that workload does not exercise the layer).
LAYER_OWNERS = {
    "core.detect.": ("detect",),
    "naturalness.": ("detect",),
    "core.pipeline.": ("pipeline",),
    "sched.": ("pipeline",),
    "serve.": ("detect",),
    "detect.": ("detect",),
    "data.": ("stream",),
    "op.cells": ("stream",),
    "op.drift": ("stream",),
    "core.detect_stream": ("stream",),
    "core.stream.": ("stream",),
    "op.gmm_fit_us": ("detect", "pipeline", "stream"),
    "nn.queries": ("detect", "pipeline", "stream"),
    "nn.logits_us_per_row": ("detect", "stream"),
    "trace.": ("detect", "stream"),
}


def applies(name, workload):
    for prefix, owners in LAYER_OWNERS.items():
        if name.startswith(prefix):
            return workload in owners
    return False


def record_pins(pins, only=None):
    """One run per mode and workload covers every variant; runs at 1 and 4
    threads must agree."""
    for mode in ("full", "smoke"):
        table = pins.setdefault(mode, {})
        for workload in THREADS:
            if only and workload != only:
                continue
            payloads = []
            for threads in (1, 4):
                report = run_binary(workload, 0, 0, False, threads,
                                    smoke=(mode == "smoke"), record=True)
                if report is None or report["errors"]:
                    log(f"{workload}: run failed")
                    return 1
                payloads.append(report["payloads"])
            if payloads[0] != payloads[1]:
                log(f"{workload}: payload differs between OPAD_THREADS 1 "
                    f"and 4")
                return 1
            table[workload] = payloads[0]
            log(f"pinned {mode} {workload}: {len(payloads[0])} variants")
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        log("BENCHMARK.json not found")
        return 2
    spec = load_json(spec_path)
    pins = load_json(PINS) if os.path.exists(PINS) else {}
    if not build():
        return 1
    if args.record_pins:
        return record_pins(pins, args.workload)
    if args.smoke:
        return smoke(spec, pins)
    if not args.workload:
        parser.error("--workload is required")
    return measure(args, spec, pins)


if __name__ == "__main__":
    sys.exit(main())
