#!/usr/bin/env python3
"""Benchmark of the plueckerdec list decoder.

Run from the repository root:

    python3 perfbench/run.py --workload grassmann-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload all --seed 1 --runs 10 --record perfbench/BENCH_1.json

An op is one decode, one corrupt-then-decode trial or one CLI process.
Each workload runs in a fresh process as a closed loop with one caller;
its outputs are checked against a second strategy after the timed phase.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  The exit code is 1 when any op fails.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Op latencies, and ``ops_per_s`` (ops per second of those latencies), are
CPU time of the process that does the op (the workload process, plus the
CLI process for cli-cold), scaled to the speed of an uncontended core; so
is ``setup_s``.  The program is single-threaded and does no I/O, so on an
idle core the CPU time is the wall latency.  On a shared host the wall clock
also counts the time other tenants hold the core, which moved the tail of
oracle-q3n6 by half its median between two sets of runs of the same code,
and a core runs about 1.4 times slower while another tenant uses its
hyperthread sibling (see ``speed.py``).  The benchmark therefore pins itself
and its children to one core and times a fixed loop there every 20 ms of
ops.  The core speed this divides out, and the unscaled CPU and wall-clock
throughput and median, are printed beside the metrics.  CPU time leaves out
waiting and work done in other processes; the program does neither today,
and a change that adds either shows in the wall-clock figures only.

``--trace 1`` reports the per-layer metrics: an untraced process runs the
workload for half the time, a traced process runs the same ops with spans
around the calls into each module (see ``spans.py``), and a third process
times fixed-size kernels (see ``kernels.py``).  The difference between the
traced and untraced op times, scaled as above, is the tracing overhead.
Span times are wall-clock.

``PLUECKERDEC_THREADS`` is removed from the environment, and no
``workers`` or ``coset_limit`` argument is passed, so only library
defaults are measured.

``perfbench/smoke.py`` checks the benchmark itself.  ``perfbench/BENCH_0.json``
is the baseline written by the ``--record`` form above (ten seeds per
workload plus one traced run each); ``perfbench/BENCH_0b.json`` is a second
set on seeds 11-20 of the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SPEED_REF_S, pin_one_core, speed_loop_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Why each workload is in the benchmark, and the unit of each metric, is
# recorded in BENCHMARK.json.
WORKLOADS = ("grassmann-paper", "channel-paper", "oracle-q3n6", "cli-cold")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = os.environ.copy()
    env.pop("PLUECKERDEC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "plueckerdec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "machine": f"{platform.machine()} {cpu}".strip(),
    }


def run_child(args: list[str], env: dict) -> tuple[float, dict]:
    """Start workload.py; return (seconds until it is ready, its result)."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    t0 = time.perf_counter()
    # unbuffered, so that readline takes the first line only and communicate the rest
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline().decode()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"workload process timed out: {' '.join(args)}")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"workload process failed (exit {proc.returncode}): {' '.join(args)}")
    lines = out.decode().strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def cli_import_s(env: dict) -> float:
    """Set-up of cli-cold: a fresh interpreter importing plueckerdec.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import plueckerdec.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, extra: list[str]) -> dict:
    """End-to-end metrics, tracing off.

    setup_s is the median over SETUP_RUNS fresh processes, the last of
    which goes on to run the timed loop, each scaled by the core's speed
    before and after it.
    """
    env = child_env()
    base = ["--workload", workload, "--seed", str(seed)]
    # (wall seconds of the set-up, speed-loop seconds on the core before it,
    # and after it)
    samples = []
    if workload == "cli-cold":
        for _ in range(SETUP_RUNS):
            before = speed_loop_s()
            samples.append((cli_import_s(env), before, speed_loop_s()))
        _, res = run_child([*base, "--seconds", str(seconds), *extra], env)
    else:
        for _ in range(SETUP_RUNS - 1):
            before = speed_loop_s()
            setup_s, out = run_child([*base, "--setup-only"], env)
            samples.append((setup_s, before, out["speed_s"]))
        before = speed_loop_s()
        setup_s, res = run_child([*base, "--seconds", str(seconds), *extra], env)
        samples.append((setup_s, before, res["speed_at_ready_s"]))
    res["setup_s"] = statistics.median(
        wall * 2 * SPEED_REF_S / (before + after) for wall, before, after in samples
    )
    res["setup_unscaled_s"] = statistics.median(wall for wall, *_ in samples)
    res["setup_samples_s"] = [wall for wall, *_ in samples]
    res["metrics"] = {name: res[name] for name in declared("end_to_end")}
    return res


def measure_traced(workload: str, seed: int, seconds: float, extra: list[str]) -> dict:
    """Per-layer metrics: untraced and traced processes on the same ops."""
    env = child_env()
    base = ["--workload", workload, "--seed", str(seed)]
    _, plain = run_child([*base, "--seconds", str(seconds / 2), *extra], env)
    n = plain["attempted"]
    _, traced = run_child([*base, "--ops", str(n), "--trace", "1", *extra], env)
    proc = subprocess.run(
        [sys.executable, str(HERE / "kernels.py"), "--seed", str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    layers = {**traced["layers"], **json.loads(proc.stdout)}
    layers["trace.ops"] = float(n)
    plain_ms, traced_ms = 1e3 / plain["ops_per_s"], 1e3 / traced["ops_per_s"]
    layers["trace.untraced_op_ms_per_op"] = plain_ms
    layers["trace.overhead_ms_per_op"] = traced_ms - plain_ms
    layers["trace.overhead_frac"] = (traced_ms - plain_ms) / plain_ms
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] += plain["failures"]
    traced["metrics"] = layers
    return traced


def declared(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer"."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(workload: str, res: dict, traced: bool) -> dict:
    """Print the human-readable lines; return the contract's result object."""
    units = declared("per_layer" if traced else "end_to_end")
    if set(units) != set(res["metrics"]):
        raise SystemExit(
            f"measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(res['metrics']))}"
        )
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}
    fail_frac = res["failed"] / res["attempted"]
    print(f"workload {workload}  seed {res['seed']}  ops {res['attempted']}  "
          f"reference {res['reference']}")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{res['op_tail_percentile']:.2f}, "
                    f"{res['op_tail_beyond']} samples beyond, of {res['attempted']})")
        elif name == "setup_s":
            note = (f"  (median of {len(res['setup_samples_s'])} fresh processes; "
                    f"unscaled {res['setup_unscaled_s']:.6g} s)")
        elif name == "peak_rss_mb":
            note = f"  (ru_maxrss after the first {res['min_ops']} ops)"
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_frac':<40} {fail_frac:.6g} ratio  ({res['failed']} of {res['attempted']})")
    print(f"  {'core speed (1 = uncontended core)':<40} {res['core_speed']:.6g}")
    print(f"  {'unscaled CPU time, for comparison:':<40} {res['cpu_ops_per_s']:.6g} 1/s, "
          f"p50 {res['cpu_op_p50_ms']:.6g} ms")
    print(f"  {'wall clock, for comparison:':<40} {res['wall_ops_per_s']:.6g} 1/s, "
          f"p50 {res['wall_op_p50_ms']:.6g} ms")
    for failure in res["failures"]:
        print(f"  failure: {failure}")
    if res.get("absent"):
        print(f"  absent: {', '.join(res['absent'])}")
    print(f"  input_digest sha256 {res['input_digest']} (first {res['digest_ops']} inputs)")
    if "spans_file" in res:
        print(f"  spans written to {res['spans_file']}")
    print("  environment " + json.dumps(environment()), flush=True)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload, each in fresh processes; with --record, over many seeds."""
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    seeds = range(args.seed, args.seed + args.runs)
    if args.record:
        plan = [(0, seed) for seed in seeds] + [(1, args.seed)]
    else:
        plan = [(args.trace, seed) for seed in seeds]
    for trace, seed in plan:
        for workload in WORKLOADS:
            measure_fn = measure_traced if trace else measure
            res = measure_fn(workload, seed, args.seconds, [])
            res["trace"] = trace
            res["result"] = report(workload, res, bool(trace))
            runs[workload].append(res)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    if args.record:
        record(args, runs)
    print(json.dumps({"correct": failed == 0, "failed": failed}))
    return 1 if failed else 0


def record(args, runs: dict) -> None:
    """Write medians, quartile spreads and the traced breakdown per workload."""
    out = {"environment": environment(), "seconds": args.seconds,
           "seeds": list(range(args.seed, args.seed + args.runs)), "workloads": {}}
    for workload, results in runs.items():
        plain = [r for r in results if not r["trace"]]
        entry = {}
        for name, unit in declared("end_to_end").items():
            values = [r["metrics"][name] for r in plain]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "values": values}
        entry["op_tail_percentile"] = [r["op_tail_percentile"] for r in plain]
        entry["attempted"] = [r["attempted"] for r in plain]
        entry["failed"] = [r["failed"] for r in plain]
        entry["input_digest"] = [r["input_digest"] for r in plain]
        traced = [r for r in results if r["trace"]]
        out["workloads"][workload] = {
            "end_to_end": entry,
            "per_layer": traced[0]["metrics"] if traced else {},
        }
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"recorded {args.record}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="with --workload all: seeds per workload")
    ap.add_argument("--record", help="with --workload all: write a BENCH_<n>.json here")
    ap.add_argument("--inject-wrong-reference", action="store_true",
                    help="corrupt the first reference list (smoke test of the check)")
    args = ap.parse_args()

    if not (SRC / "plueckerdec" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'plueckerdec'}", file=sys.stderr)
        return 2
    os.environ.pop("PLUECKERDEC_THREADS", None)
    pin_one_core()
    if args.workload == "all":
        return run_all(args)

    extra = ["--inject-wrong-reference"] if args.inject_wrong_reference else []
    measure_fn = measure_traced if args.trace else measure
    result = report(args.workload, measure_fn(args.workload, args.seed, args.seconds, extra),
                    bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
