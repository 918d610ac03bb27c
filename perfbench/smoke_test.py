#!/usr/bin/env python3
"""The benchmark's own test: every workload at its seconds-long smoke size.

    python3 perfbench/smoke_test.py

For each workload in BENCHMARK.json it runs perfbench untraced, traced and
untraced again on one seed, and checks the output contract: the last line is
a JSON object with exactly correct/attempted/failed/metrics, every run is
correct with no failed operation, the metric names and units are exactly
BENCHMARK.json's end_to_end (untraced) or per_layer (traced) lists, and every
end-to-end value is positive. perfbench's determinism records make the
second and third runs compare their leakage and counts with the first.

It also checks that a directory holding only BENCHMARK.json and perfbench/
fails fast, with a non-zero exit and no result line.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(proc, expected, label):
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in expected]:
        errors.append(f"{label}: metric names {list(metrics)}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        if "bound" in m and not got.get("value", 0) > 0:
            errors.append(f"{label}: {m['name']} = {got.get('value')} is not positive")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1, 0):
            expected = bench["per_layer"] if trace else bench["end_to_end"]
            label = f"{workload} trace={trace}"
            found = check_result(run(ROOT, workload, trace), expected, label)
            errors += found
            print(f"{label}: {'ok' if not found else 'FAIL'}", flush=True)

    bare = tempfile.mkdtemp(prefix="perfbench-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("bare directory: the benchmark did not fail without the sources")
    finally:
        shutil.rmtree(bare)

    for error in errors:
        print("FAIL", error)
    print("smoke test passed" if not errors else f"smoke test FAILED ({len(errors)} errors)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
