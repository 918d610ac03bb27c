#!/usr/bin/env python3
"""Steadiness report: runs every workload repeatedly, interleaved, in two
sets, and prints how much each end-to-end metric spreads within a set and
how far its median moves between the sets.

    python3 perfbench/steadiness.py [--rounds 10] [--seconds S]

Each set has --rounds rounds; round r of either set runs every workload once
untraced with seed r + 1, so the two sets repeat the same inputs. The first
two rounds of the first set also run each workload traced with the same seed
(so perfbench's determinism records compare traced and untraced results).
The report gives, per workload, metric and set:

  * median, quartiles (statistics.quantiles, n=4), min and max;
  * spread = (q3 - q1) / median, held to a third of the metric's bound in
    BENCHMARK.json;

then, per workload and metric, the change of the second set's median against
the first's in the metric's worse direction, held to the bound itself; the
spread of the calibration timing every run records (fixed work unrelated to
svtox, so a slow host shows there); and the tracing overhead: a traced run
alternates traced and untraced repetitions, and the overhead is its traced
wall_s over its untraced wall_s, minus 1.

Exits 1 when a run fails or reports incorrect results, when a spread is above
a third of its bound, or when a median moves by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
TRACED_ROUNDS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: incorrect result")
    return context, result


def summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "min": values[0], "max": values[-1],
            "spread": (q3 - q1) / med if med else 0.0}


def worsening(first, second, better):
    """How much worse the second median is than the first (negative = better)."""
    if not first or not second:
        return 0.0
    return second / first - 1.0 if better == "lower" else first / second - 1.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    plain = {w: [[] for _ in range(SETS)] for w in workloads}
    traced = {w: [] for w in workloads}
    for s in range(SETS):
        for r in range(args.rounds):
            for w in workloads:
                plain[w][s].append(run_once(w, r + 1, args.seconds, 0))
                if s == 0 and r < TRACED_ROUNDS:
                    traced[w].append(run_once(w, r + 1, args.seconds, 1))
            print(f"set {s + 1} round {r + 1}/{args.rounds} done", file=sys.stderr, flush=True)

    steady = True
    print(f"{'workload':<15} {'metric':<19} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'spread':>7} {'limit':>6}")
    moves = []
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            limit = metric["bound"] / 3
            medians = []
            for s in range(SETS):
                st = summary([res["metrics"][name]["value"] for _, res in plain[w][s]])
                medians.append(st["median"])
                ok = st["spread"] <= limit
                steady &= ok
                print(f"{w:<15} {name:<19} {s + 1:>3} {st['median']:>11.6g} {st['q1']:>11.6g} "
                      f"{st['q3']:>11.6g} {st['min']:>11.6g} {st['max']:>11.6g} "
                      f"{st['spread']:>7.2%} {limit:>6.1%}{'' if ok else '  <-- above bound/3'}")
            move = worsening(medians[0], medians[1], metric["better"])
            ok = move <= metric["bound"]
            steady &= ok
            moves.append(f"  {w:<15} {name:<19} {move:>+7.2%}  bound {metric['bound']:.0%}"
                         f"{'' if ok else '  <-- above bound'}")

    print("\nmedian of set 2 against set 1, in the metric's worse direction:")
    print("\n".join(moves))

    print("\ncalibration (fixed work, seconds):")
    for w in workloads:
        for s in range(SETS):
            st = summary([ctx["calibration_s"] for ctx, _ in plain[w][s]])
            print(f"  {w:<15} set {s + 1}  median {st['median']:.4f}  q1 {st['q1']:.4f}  "
                  f"q3 {st['q3']:.4f}  min {st['min']:.4f}  max {st['max']:.4f}  "
                  f"spread {st['spread']:.2%}")

    print("\ntracing overhead (traced vs untraced repetitions of the traced runs):")
    for w in workloads:
        runs = traced[w]
        ratios = [ctx["traced_wall_s"] / ctx["wall_s"] - 1.0 for ctx, _ in runs]
        print(f"  {w:<15} wall_s untraced {statistics.median(c['wall_s'] for c, _ in runs):.4f} s"
              f"  traced {statistics.median(c['traced_wall_s'] for c, _ in runs):.4f} s"
              f"  overhead {statistics.median(ratios):+.2%} (median of {len(ratios)} runs)")

    print("\nsteady" if steady else "\nNOT steady: a spread or a median move is above its limit")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
