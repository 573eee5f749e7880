#!/usr/bin/env python3
"""The macosim benchmark.

Builds the harness (macobench/CMakeLists.txt, which builds libmaco from the
checkout's own sources), runs one workload for a fixed time and prints the
result as the last line of standard output:

    python3 macobench/run.py --workload detailed_scaling --seed 1 \
        --seconds 20 --trace 0

Every repetition is a fresh process. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer metrics of a traced run.
See macobench/README.md for the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "macobench")
BINARY = os.path.join(BUILD_DIR, "macobench")
STATE_DIR = os.path.join(ROOT, ".bench_build", "state")

WORKLOADS = ("analytic_llm", "detailed_scaling", "sampled_llm", "serve_stream")
# A workload without a cross-rung comparison or a sampled estimate reports
# fidelity_gap / ci95_rel as this constant (the metric set is the same on
# every workload, and a metric must never read 0).
NOT_APPLICABLE = 1.0
# The whole invocation must end within this many seconds.
DEADLINE_S = 170.0
# Extra set-up-only processes per run for the workloads whose set-up takes
# microseconds: per-process timings of so little work differ by up to a
# third, so setup_s takes the median over many processes.
SETUP_PROCESSES = {"analytic_llm": 15, "sampled_llm": 15}
# Simulated counters compared by the drift report.
DRIFT_PREFIXES = ("mem.", "vm.", "noc.", "engine.events", "engine.clock_edges")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("macobench: no macosim sources next to macobench/; "
                 "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DMACOBENCH_JOBS=" + jobs],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--parallel", jobs],
                   stdout=sys.stderr, check=True)


def inputs_from(seed):
    """The generated inputs: the only thing the program sees of the seed."""
    rng = random.Random(seed)
    return {"serve_seed": rng.randrange(1, 2**31),
            "sample_seed": rng.randrange(1, 2**31)}


def run_process(workload, mode, inputs, deadline, trace_out=None):
    """One harness process; returns its JSON record (or an error record)."""
    cmd = [BINARY, "--workload", workload, "--mode", mode,
           "--serve-seed", str(inputs["serve_seed"]),
           "--sample-seed", str(inputs["sample_seed"])]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    budget = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        return {"errors": [f"{mode} process exceeded the time limit"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"{mode} process exited {proc.returncode}"]}
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return {"errors": [f"{mode} process printed no result"]}
    for section in ("sim", "layers"):
        for name, value in record[section].items():
            if value is None:
                record["errors"].append(f"{mode} process: {name} is not "
                                        "a finite number")
    return record


def digest(sim):
    return hashlib.sha256(
        json.dumps(sim, sort_keys=True).encode()).hexdigest()[:16]


def check(reps, extra, failures):
    """Output checks across processes; appends one line per failure."""
    for rep in reps + extra:
        failures.extend(rep.get("errors", []))
    reference = reps[0].get("sim", {}) if reps else {}
    if not reference:
        failures.append("no simulated results")
    for rep in reps[1:] + extra:
        sim = rep.get("sim", {})
        if sim and sim != reference:
            differing = sorted(k for k in set(sim) | set(reference)
                               if sim.get(k) != reference.get(k))
            failures.append("simulated results differ between processes: "
                            + ", ".join(differing))
        for key, value in rep.get("sweep", {}).items():
            if reference.get(key) != value:
                failures.append(f"{key}: macosim run_sweep gives {value!r}, "
                                f"the benchmark {reference.get(key)!r}")
    if not any(rep.get("sweep") for rep in extra):
        failures.append("no run_sweep comparison was made")


def drift_report(workload, seed, sim, layers):
    """Prints how the simulated results moved since the last recorded run."""
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"{workload}-seed{seed}.json")
    counts = {k: v for k, v in layers.items() if k.startswith(DRIFT_PREFIXES)}
    previous = None
    if os.path.isfile(path):
        with open(path) as f:
            previous = json.load(f)
    if previous is None:
        print(f"drift: no previous record for {workload} seed {seed}")
    else:
        moved = sorted(k for k in set(sim) | set(previous["sim"])
                       if sim.get(k) != previous["sim"].get(k))
        print("drift: simulated digest " +
              ("unchanged" if not moved else
               "changed (" + ", ".join(moved) + ")") +
              f" since the previous run [{digest(sim)}]")
        if counts and previous.get("counts"):
            moved = sorted(k for k in counts
                           if counts[k] != previous["counts"].get(k))
            print("drift: mem/vm/noc/engine counts " +
                  ("unchanged" if not moved else
                   "changed (" + ", ".join(moved) + ")"))
    record = {"sim": sim,
              "counts": counts or (previous or {}).get("counts", {})}
    with open(path, "w") as f:
        json.dump(record, f, sort_keys=True)


def metric_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    units = metric_units("per_layer" if args.trace else "end_to_end")
    build()
    inputs = inputs_from(args.seed)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    # Untraced repetitions while the next one, judged by the longest so far,
    # still ends within --seconds.
    reps = []
    longest = 0.0
    while not reps or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        reps.append(run_process(args.workload, "measure", inputs, deadline))
        longest = max(longest, time.monotonic() - began)

    ok = [rep for rep in reps if not rep.get("errors")]
    setups = [run_process(args.workload, "setup", inputs, deadline)
              for _ in range(SETUP_PROCESSES.get(args.workload, 0))]

    # The traced run and the costlier checks, outside every timed region.
    # detailed_scaling's check process runs the traced decomposition itself.
    trace_path = os.path.join(STATE_DIR,
                              f"{args.workload}-seed{args.seed}.trace.json")
    os.makedirs(STATE_DIR, exist_ok=True)
    detailed = args.workload == "detailed_scaling"
    traced = None
    extra = []
    if args.trace and not detailed:
        traced = run_process(args.workload, "traced", inputs, deadline,
                             trace_path)
        extra.append(traced)
    checked = run_process(args.workload, "check", inputs, deadline,
                          trace_path if args.trace and detailed else None)
    extra.append(checked)
    if args.trace and detailed:
        traced = checked

    failures = [error for rep in setups for error in rep.get("errors", [])]
    check(reps, extra, failures)
    if traced is not None and not traced.get("trace_file"):
        failures.append("the traced run wrote no renderable span file")
    walls = [rep["wall_s"] for rep in ok]
    sim = reps[0].get("sim", {})
    values = {}
    if args.trace:
        layers = traced.get("layers", {})
        for name in units:
            if name == "trace_overhead_s":
                values[name] = (traced.get("wall_s", 0.0)
                                - statistics.median(walls) if walls else 0.0)
            elif name in layers:
                values[name] = layers[name]
            else:
                failures.append("the traced run lacks " + name)
    elif ok:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(
                rep["setup_s"] for rep in ok + setups if not rep.get("errors")),
            "peak_rss_mib": statistics.median(rep["peak_rss_mib"]
                                              for rep in ok),
            "fidelity_gap": sim.get("fidelity_gap", NOT_APPLICABLE),
            "ci95_rel": sim.get("ci95_rel", NOT_APPLICABLE),
        }
    for failure in failures:
        print("macobench: check failed: " + failure, file=sys.stderr)

    drift_report(args.workload, args.seed, sim,
                 (traced or checked).get("layers", {}))
    if traced is not None and traced.get("trace_file"):
        print(f"trace: {traced['trace_file']} "
              "(render with: macosim trace <file>)")
    print(f"repetitions: {len(reps)}, wall_s: "
          + ", ".join(f"{w:.3f}" for w in walls))

    attempted = max(1, sum(rep.get("attempted", 0) for rep in reps))
    failed = max(len(failures), sum(rep.get("failed", 0) for rep in reps))
    result = {
        "correct": not failures and len(values) == len(units),
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
