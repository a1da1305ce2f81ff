#!/usr/bin/env python3
"""Repeat the benchmark and report each end-to-end metric's spread.

    python3 perfbench/sweep.py [--out perfbench/history/NNN.json]

Run from the root of a pcaml checkout. Makes 2 interleaved sets of 10
runs of every workload in BENCHMARK.json through perfbench/run.py, each
run with its own seed and run_seconds long. For each workload and metric
it prints, per set, the median and the quartiles (Python's
statistics.quantiles(n=4)), the spread (q3 - q1) / median, and how far
the last set's median is worse than the first's, each against the
metric's bound in BENCHMARK.json. --out writes all of it, with every
value and a machine block, as a trajectory point. Exits 1 when a run
fails, a spread exceeds its bound, a median drifts by more than its
bound, or perfbench/layers.json does not map every per-layer metric to
end-to-end metrics and workloads of BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RUNS = 10
SETS = 2


def machine():
    info = {"cores": os.cpu_count(), "os": platform.platform()}
    try:
        with open("/proc/cpuinfo") as f:
            models = [l.split(":", 1)[1].strip() for l in f if l.startswith("model name")]
        info["cpu"] = models[0] if models else None
        with open("/proc/meminfo") as f:
            kb = int(next(l for l in f if l.startswith("MemTotal")).split()[1])
        info["mem_gb"] = round(kb / 2**20, 1)
    except (OSError, StopIteration, ValueError):
        pass
    try:
        info["ocaml"] = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                                       text=True).stdout.strip() or None
    except OSError:
        info["ocaml"] = None
    return info


def layer_map_errors(bench):
    """What is wrong with perfbench/layers.json, the map from each per-layer
    metric to the end-to-end metrics and workloads it should move."""
    with open(os.path.join("perfbench", "layers.json")) as f:
        layers = json.load(f)
    metrics = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    errors = ["%s: not in layers.json" % m for m in sorted(per_layer - set(layers))]
    for name, entry in layers.items():
        if name not in per_layer:
            errors.append("%s: not a per-layer metric" % name)
        errors += ["%s: no end-to-end metric %s" % (name, m) for m in entry["moves"]
                   if m not in metrics]
        errors += ["%s: no workload %s" % (name, w) for w in entry["workloads"]
                   if w not in workloads]
    return errors


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                        str(seed), "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if p.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(p.stdout + p.stderr)
        return None, wall
    return result, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    errors = layer_map_errors(bench)
    for e in errors:
        print("layers.json: " + e)
    ok = not errors
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[workload][metric][set] -> list of run values
    values = {w: {m: [[] for _ in range(SETS)] for m in metrics} for w in workloads}
    walls = {w: [] for w in workloads}
    for r in range(RUNS):
        for s in range(SETS):
            for w in workloads:
                seed = 1000 * (s + 1) + r
                result, wall = run_once(w, seed, seconds)
                walls[w].append(wall)
                if result is None:
                    print("FAIL: %s seed %d" % (w, seed))
                    ok = False
                    continue
                for m in metrics:
                    values[w][m][s].append(result["metrics"][m]["value"])
                print("run %d set %d %-13s seed %5d %5.1f s  %s" % (
                    r, s, w, seed, wall, "  ".join(
                        "%s=%.6g" % (m, result["metrics"][m]["value"]) for m in metrics)),
                    flush=True)

    doc = {"schema": "pcaml-perfbench-trajectory/1", "run_seconds": seconds,
           "runs_per_set": RUNS, "sets": SETS, "machine": machine(), "workloads": {}}
    print("\n%-13s %-18s %12s %8s %8s %8s  %s" % (
        "workload", "metric", "median", "spread", "bound", "drift", "status"))
    for w in workloads:
        doc["workloads"][w] = {"max_run_wall_s": max(walls[w]), "metrics": {}}
        for m, spec in metrics.items():
            sets = [summary(v) for v in values[w][m] if len(v) >= 2]
            if len(sets) < SETS:
                ok = False
                continue
            bound = spec["bound"]
            sign = 1 if spec["better"] == "lower" else -1
            drift = sign * (sets[-1]["median"] - sets[0]["median"]) / sets[0]["median"]
            spread = max(st["spread"] for st in sets)
            bad = drift > bound or spread > bound
            ok = ok and not bad
            status = "FAIL" if bad else ("ok" if spread < bound / 3 else "wide")
            print("%-13s %-18s %12.6g %8.4f %8.4f %8.4f  %s" % (
                w, m, sets[0]["median"], spread, bound, drift, status))
            doc["workloads"][w]["metrics"][m] = {
                "unit": spec["unit"], "better": spec["better"], "bound": bound, "drift": drift,
                "sets": sets}
    print("\nlongest run: %.1f s" % max(max(v) for v in walls.values()))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
