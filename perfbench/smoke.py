#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the repository root.

    python3 perfbench/smoke.py

Runs every workload at a tiny length, untraced and traced, and checks that
every metric of BENCHMARK.json is emitted with its unit, that no op fails
and that the spans' self times sum to the op latencies measured by the
loop's own clock.  Then checks that an injected wrong reference list is
counted as a failure and makes the command exit nonzero, and that a call
site missing from the program is reported as absent instead of crashing
the trace.
Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.5"
# The bench.op span opens just before and closes just after the timed call.
SELF_SUM_TOLERANCE = 0.01


def fail(msg: str) -> None:
    raise SystemExit(f"smoke: FAIL: {msg}")


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace {trace}: no output; stderr: {proc.stderr[-500:]}")
    return proc.returncode, json.loads(lines[-1])


def check_absent_reported() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import plueckerdec.listdec as listdec
    import spans

    saved = listdec.message_of
    del listdec.message_of
    tracer = spans.Tracer()
    try:
        absent = tracer.install()
    finally:
        tracer.uninstall()
        listdec.message_of = saved
    if absent != ["plueckerdec.listdec.message_of"]:
        fail(f"absent call sites reported as {absent}")


def main() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    kinds = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        for trace, declared in kinds.items():
            rc, res = run(w, trace)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{w} trace {trace}: result keys {sorted(res)}")
            if rc != 0 or not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{w} trace {trace}: exit {rc}, result {res}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                fail(f"{w} trace {trace}: metrics/units differ: {set(got.items()) ^ set(want.items())}")
            if not all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                fail(f"{w} trace {trace}: a metric value is not a number")
            ratio = res["metrics"]["trace.self_sum_ratio"]["value"] if trace else 1.0
            if abs(ratio - 1) > SELF_SUM_TOLERANCE:
                fail(f"{w}: span self times sum to {ratio:.4f} x the measured op latencies")
            print(f"smoke: ok {w} trace {trace} ({res['attempted']} ops)", flush=True)

    rc, res = run("grassmann-paper", 0, "--inject-wrong-reference")
    if rc == 0 or res["correct"] or res["failed"] < 1:
        fail(f"injected wrong reference not counted: exit {rc}, result {res}")
    print("smoke: ok injected wrong reference counted as a failure")

    check_absent_reported()
    print("smoke: ok missing call site reported as absent")


if __name__ == "__main__":
    main()
