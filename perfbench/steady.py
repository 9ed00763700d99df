#!/usr/bin/env python3
"""Steadiness report: run one workload several times and summarise.

    python3 perfbench/steady.py --workload oneshot [--runs 10] [--trace 0|1]
                                [--save FILE] [--against FILE]

Runs the benchmark command from BENCHMARK.json once per seed 1..runs, for
BENCHMARK.json's run_seconds, from the repository root. Prints for every
metric the median, the quartiles (statistics.quantiles, n=4), min and max,
and the spread: (Q3 - Q1) / median. For end-to-end metrics the spread is
also given as a share of the metric's bound and flagged when above a
third of it. setup_s is listed like the others but kept out of the
largest-spread figure: its bound limits how far its median may move
between two sets of runs, and it is held to no spread within one. Its
own ratio is printed beside that figure. Each run's host.slow_round_frac
(share of the workload's rounds slower than 1.3x its fastest quartile)
is listed so an outlier run can be placed in the host's slow phase.

--save FILE writes every run's metric values as JSON. --against FILE
compares this set with one saved earlier: for every end-to-end metric,
setup_s included, the change of the median in the metric's worse
direction, as a share of the earlier median and of the bound, flagged
when it exceeds the bound.

Exits non-zero if any run fails or prints no result, and, with
--against, if any median moved the worse way by more than its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"run with seed {seed} failed (exit {p.returncode})")
    result = json.loads(lines[-1])
    slow = None
    for line in lines:
        m = re.match(r"host\.slow_round_frac\s+([0-9.eE+-]+)", line)
        if m:
            slow = float(m.group(1))
    return result, slow


def compare(values, earlier, metrics):
    """Median shift of every end-to-end metric against an earlier set."""
    print(f"\n{'metric':<32} {'earlier':>14} {'now':>14} {'worse by':>9} "
          f"{'/bound':>7}")
    worst, bad = 0.0, []
    for m in metrics:
        name = m["name"]
        if name not in values or name not in earlier:
            continue
        before = statistics.median(earlier[name])
        now = statistics.median(values[name])
        worse = (now - before) if m["better"] == "lower" else (before - now)
        share = worse / before if before else 0.0
        ratio = share / m["bound"]
        worst = max(worst, abs(ratio))
        flag = "  OVER BOUND" if share > m["bound"] else ""
        if flag:
            bad.append(name)
        print(f"{name:<32} {before:>14.6g} {now:>14.6g} {share:>+9.4f} "
              f"{ratio:>+7.3f}{flag}")
    print(f"largest |median shift| / bound: {worst:.3f}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, slow = {}, []
    for seed in range(1, a.runs + 1):
        result, s = run_once(bench["command"], a.workload, seed, seconds, a.trace)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"seed {seed}: outputs checked wrong")
        slow.append(s)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {seed}/{a.runs} attempted={result['attempted']} "
              f"host.slow_round_frac={s}", flush=True)

    print(f"\nworkload={a.workload} runs={a.runs} seconds={seconds} trace={a.trace}")
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} "
          f"{'max':>14} {'spread':>8}  bound")
    worst, setup_ratio = 0.0, None
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        note = ""
        if name in bounds:
            b = bounds[name]
            note = f"{b:.3f}"
            if name == "setup_s":
                setup_ratio = spread / b
            else:
                worst = max(worst, spread / b)
            if spread > b / 3:
                note += "  ABOVE 1/3 BOUND"
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {min(vals):>14.6g} "
              f"{max(vals):>14.6g} {spread:>8.4f}  {note}")
    print(f"\nhost.slow_round_frac per run: {slow}")
    if a.trace == 0:
        print(f"largest spread / bound, setup_s aside: {worst:.3f}; "
              f"setup_s spread / bound: {setup_ratio:.3f}")

    if a.save:
        with open(a.save, "w") as f:
            json.dump({"workload": a.workload, "trace": a.trace, "values": values}, f)
    if a.against:
        with open(a.against) as f:
            earlier = json.load(f)
        if (earlier["workload"], earlier["trace"]) != (a.workload, a.trace):
            raise SystemExit(f"{a.against} holds another workload or trace mode")
        if compare(values, earlier["values"], bench["end_to_end"]):
            raise SystemExit("a median moved the worse way by more than its bound")


if __name__ == "__main__":
    main()
