#!/usr/bin/env python3
"""Smoke test of the benchmark itself, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at the default seed and one other,
runs a few ops untraced and traced and checks that

  * the last output line is a result with exactly the keys correct,
    attempted, failed and metrics, and every op passed its checks (for
    the traced solve workloads this includes agreement of the traced
    composition with Allocator.solve on cost, probes and conflicts; for
    service-whatif, the daemon's verdicts against the in-process
    replay's);
  * every end-to-end metric (untraced) or per-layer metric (traced)
    prints, by name and with its unit, as a finite number;
  * the run context (cores, OCaml version, seed, timed ops) prints.

It then repeats the traced run at the default seed and requires every
count (unit "count") to repeat exactly.  Exits 1 on the first failure.
"""

import json
import math
import subprocess
import sys

DEFAULT_SEED = 42
OTHER_SEED = 7
SMOKE_OPS = 6


def run(workload, seed, trace):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--ops", str(SMOKE_OPS),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(bench, workload, seed, trace):
    ctx, res = run(workload, seed, trace)
    where = f"{workload} seed {seed} trace {trace}"
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not (res.get("correct") is True and res.get("failed") == 0
            and res.get("attempted") == SMOKE_OPS):
        problems.append(f"correct={res.get('correct')} attempted={res.get('attempted')} "
                        f"failed={res.get('failed')}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = res.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        v = got.get(m["name"], {})
        if v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)) \
                or not math.isfinite(v["value"]):
            problems.append(f"{m['name']}: {v}")
    for key in ("cores_available", "ocaml_version", "seed", "timed_ops"):
        if key not in ctx:
            problems.append(f"context lacks {key}")
    if ctx.get("seed") != seed or ctx.get("timed_ops") != SMOKE_OPS:
        problems.append(f"context {ctx}")
    if problems:
        sys.exit(f"FAIL {where}: " + "; ".join(problems))
    print(f"ok   {where}", flush=True)
    return res


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for w in (w["name"] for w in bench["workloads"]):
        traced = {}
        for seed in (DEFAULT_SEED, OTHER_SEED):
            for trace in (0, 1):
                res = check(bench, w, seed, trace)
                if trace:
                    traced[seed] = res
        again = check(bench, w, DEFAULT_SEED, 1)
        first = traced[DEFAULT_SEED]["metrics"]
        moved = [c for c in counts if first[c]["value"] != again["metrics"][c]["value"]]
        if moved:
            sys.exit(f"FAIL {w}: counts differ between two runs at seed {DEFAULT_SEED}: {moved}")
        print(f"ok   {w} exact counts repeat: "
              + ", ".join(f"{c}={first[c]['value']:g}" for c in counts if first[c]["value"]),
              flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
