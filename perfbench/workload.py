"""One benchmark workload in one fresh process.

Run by ``run.py``; not meant to be started by hand.  The process sets up
(imports, builds codes, warms up on a disjoint seeded input set), prints
``ready``, runs the timed closed loop with one caller, then checks every
output against a second strategy outside the timed region and prints one
JSON result line.  Of each op's output the loop keeps only a compact
``Outcome``, and the check regenerates the inputs from the seed, so the
benchmark's own memory does not grow with the number of ops.

Inputs come from the benchmark's own ``random.Random``; the program only
ever receives the generated matrices, messages and channel seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from plueckerdec import channel, gabidulin, listdec, matgf, params

import spans as spanlib
from speed import SPEED_EVERY_S, SPEED_REF_S, speed_loop_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"

DIGEST_OPS = 32
CLI_ENTRY = "import sys; from plueckerdec.cli import main; sys.exit(main())"
CLI_SET = params.ParamSet(3, 6, 3, 2)
CLI_E = 2


# ---------------------------------------------------------------------------
# The benchmark's own arithmetic, independent of the program
# ---------------------------------------------------------------------------

def rref_mod(rows: list[list[int]], q: int) -> tuple[tuple[int, ...], ...]:
    """Nonzero rows of the reduced row echelon form over F_q (q prime)."""
    rows = [[x % q for x in row] for row in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def full_rank_matrix(rng: random.Random, ps: params.ParamSet):
    """Uniform k x n matrix of rank k; its row space is uniform on G_q(k, n)."""
    while True:
        rows = [[rng.randrange(ps.q) for _ in range(ps.n)] for _ in range(ps.k)]
        basis = rref_mod(rows, ps.q)
        if len(basis) == ps.k:
            return rows, basis


def entry_keys(entries) -> list:
    """Canonical (message, lifted basis) of each list entry, in list order."""
    return [
        (tuple(m.coeffs for m in en.message), en.subspace.basis.entries)
        for en in entries
    ]


class Outcome(NamedTuple):
    """What the check and the layer figures need from one op."""

    key: int = 0  # hash of the list's canonical entry keys, in order
    size: int = 0
    candidates: int = 0
    path: str = ""
    error: str | None = None  # the op raised, or the CLI process failed


def decode_outcome(result) -> Outcome:
    stats = result.stats
    return Outcome(
        hash(tuple(entry_keys(result.entries))), len(result.entries),
        stats.get("candidates_enumerated", 0), stats.get("solver_path", ""),
    )


def round_size(sets) -> int:
    return sum(ps.k + 1 for ps in sets)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class DecodeWorkload:
    """Uniform received spaces, each decoded at every e in 0..k.

    One round draws a received matrix per parameter set and shuffles the
    (set, e) pairs; rounds keep the mix of sets and radii the same in every
    run, whatever the seed and however many ops fit in the run.
    """

    def __init__(self, name, sets, strategy, reference, seed, min_rounds):
        self.name, self.sets = name, sets
        self.min_ops = min_rounds * round_size(sets)
        self.strategy, self.reference = strategy, reference
        self.seed = seed
        self.codes = [ps.build() for ps in sets]
        self.warm_keys: set = set()

    def _rounds(self, rng, exclude):
        while True:
            batch = []
            for i, ps in enumerate(self.sets):
                rows, basis = full_rank_matrix(rng, ps)
                while (i, basis) in exclude:
                    rows, basis = full_rank_matrix(rng, ps)
                batch.extend((i, rows, basis, e) for e in range(ps.k + 1))
            rng.shuffle(batch)
            yield from batch

    def warmup_inputs(self):
        """One round from a stream of its own; the timed stream skips its spaces."""
        rng = random.Random(f"{self.seed}/{self.name}/warmup")
        first = list(itertools.islice(self._rounds(rng, set()), round_size(self.sets)))
        self.warm_keys = {(i, basis) for i, _, basis, _ in first}
        return first

    def stream(self):
        return self._rounds(random.Random(f"{self.seed}/{self.name}"), self.warm_keys)

    def received(self, inp):
        i, rows, _, _ = inp
        return gabidulin.Subspace.from_matrix(
            matgf.MatGF.from_rows(self.codes[i].ext.base, rows)
        )

    def run_op(self, inp):
        return listdec.decode_list(self.codes[inp[0]], self.received(inp), inp[3], self.strategy)

    outcome = staticmethod(decode_outcome)

    def reference_list(self, inp):
        i, _, _, e = inp
        return entry_keys(
            listdec.decode_list(self.codes[i], self.received(inp), e, self.reference).entries
        )

    def check(self, inp, outcome, ref):
        if self.received(inp).basis.to_lists() != [list(row) for row in inp[2]]:
            return "received basis differs from the benchmark's own RREF"
        if outcome.key != hash(tuple(ref)):
            return "list differs from the reference"
        return None

    def digest_item(self, inp):
        i, _, basis, e = inp
        return [self.sets[i].label(), [list(row) for row in basis], e]


class ChannelWorkload:
    """Closed-loop corrupt-then-decode trials, t in 0..k, decoded at e = t."""

    name = "channel-paper"
    min_ops = 12 * 34  # twelve rounds

    def __init__(self, seed):
        self.seed = seed
        self.sets = params.SMALL_PARAMETER_SETS
        self.codes = [ps.build() for ps in self.sets]
        self.reference = "oracle"

    def _rounds(self, rng):
        while True:
            batch = [
                (
                    i,
                    tuple(rng.randrange(code.ext.order) for _ in range(code.msg_len)),
                    rng.getrandbits(63),
                    t,
                )
                for i, (ps, code) in enumerate(zip(self.sets, self.codes))
                for t in range(ps.k + 1)
            ]
            rng.shuffle(batch)
            yield from batch

    def warmup_inputs(self):
        """One round from a stream of its own, apart from the timed stream."""
        rng = random.Random(f"{self.seed}/{self.name}/warmup")
        return list(itertools.islice(self._rounds(rng), round_size(self.sets)))

    def stream(self):
        return self._rounds(random.Random(f"{self.seed}/{self.name}"))

    def _sent_and_received(self, inp):
        i, msg_idx, chan_seed, t = inp
        code = self.codes[i]
        msg = tuple(code.ext.element_at(j) for j in msg_idx)
        sent = gabidulin.lift(gabidulin.encode(code, msg))
        return sent, channel.corrupt(sent, channel.ChannelConfig(seed=chan_seed, t=t))

    def run_op(self, inp):
        _, r = self._sent_and_received(inp)
        return listdec.decode_list(self.codes[inp[0]], r, inp[3], "paper")

    outcome = staticmethod(decode_outcome)

    def reference_list(self, inp):
        """The oracle's list for the same received space (corrupt is seeded)."""
        _, r = self._sent_and_received(inp)
        return entry_keys(listdec.decode_list(self.codes[inp[0]], r, inp[3], "oracle").entries)

    def check(self, inp, outcome, ref):
        if outcome.key != hash(tuple(ref)):
            return "list differs from the reference"
        # the lists are equal, so the sent space is in one iff it is in the other
        sent, _ = self._sent_and_received(inp)
        if sent.basis.entries not in {basis for _, basis in ref}:
            return "sent codeword missing from the list"
        return None

    def digest_item(self, inp):
        _, r = self._sent_and_received(inp)
        return [self.sets[inp[0]].label(), r.basis.to_lists(), inp[3]]


class CliWorkload:
    """Fresh ``plueckerdec decode --format json`` processes, one at a time."""

    name = "cli-cold"
    min_ops = 30

    def __init__(self, seed, env):
        self.seed, self.env = seed, env
        self.code = CLI_SET.build()
        self.tracer = None  # in a traced run, the spans of each CLI process are adopted
        self.reference = "reduced"

    def warmup_inputs(self):
        return []  # every op pays the cold cost; there is nothing to warm

    def stream(self):
        rng = random.Random(f"{self.seed}/{self.name}")
        while True:
            rows, basis = full_rank_matrix(rng, CLI_SET)
            yield rows, basis

    @staticmethod
    def argv(rows) -> list[str]:
        ps = CLI_SET
        text = ";".join(" ".join(str(x) for x in row) for row in rows)
        return [
            "decode", "--q", str(ps.q), "--n", str(ps.n), "--k", str(ps.k),
            "--delta", str(ps.delta), "--received", text, "--e", str(CLI_E),
            "--format", "json",
        ]

    def run_op(self, inp):
        if self.tracer is not None:
            cmd = [sys.executable, str(HERE / "cli_child.py")]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        proc = subprocess.run(
            cmd + self.argv(inp[0]), capture_output=True, text=True,
            env=self.env, cwd=ROOT, check=False,
        )
        if self.tracer is not None and proc.returncode == 0:
            envelope = json.loads(proc.stdout)
            self.tracer.adopt(envelope["spans"])
            return envelope["rc"], envelope["stdout"], proc.stderr
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def outcome(out) -> Outcome:
        rc, stdout, stderr = out
        if rc != 0:
            return Outcome(error=f"exit code {rc}: {stderr.strip()[-200:]}")
        payload = json.loads(stdout)
        keys = [
            (tuple(map(tuple, en["message"])), tuple(x for row in en["lifted_basis"] for x in row))
            for en in payload["list"]
        ]
        stats = payload["stats"]
        return Outcome(
            hash(tuple(keys)), len(keys),
            stats.get("candidates_enumerated", 0), stats.get("solver_path", ""),
        )

    def reference_list(self, inp):
        r = gabidulin.Subspace.from_matrix(
            matgf.MatGF.from_rows(self.code.ext.base, inp[0])
        )
        return entry_keys(listdec.decode_list(self.code, r, CLI_E, "reduced").entries)

    def check(self, inp, outcome, ref):
        if outcome.key != hash(tuple(ref)):
            return "list differs from the reference"
        return None

    def digest_item(self, inp):
        return [CLI_SET.label(), [list(row) for row in inp[1]], CLI_E]


def make_workload(name: str, seed: int, env: dict):
    if name == "grassmann-paper":
        sets = tuple(
            ps for ps in params.SMALL_PARAMETER_SETS
            if ps.q in (2, 3) and ps.code_size <= 2**12
        )
        return DecodeWorkload(name, sets, "paper", "oracle", seed, min_rounds=14)
    if name == "channel-paper":
        return ChannelWorkload(seed)
    if name == "oracle-q3n6":
        return DecodeWorkload(name, (CLI_SET,), "oracle", "reduced", seed, min_rounds=50)
    if name == "cli-cold":
        return CliWorkload(seed, env)
    raise SystemExit(f"unknown workload {name!r}")


def input_digest(wl) -> str:
    """SHA-256 over (set, received basis, e) of the first DIGEST_OPS inputs."""
    h = hashlib.sha256()
    for inp in itertools.islice(wl.stream(), DIGEST_OPS):
        h.update(json.dumps(wl.digest_item(inp)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The timed loop and the checks
# ---------------------------------------------------------------------------

def last_line(exc_text: str) -> str:
    return exc_text.strip().splitlines()[-1]


def cpu_now(children: bool) -> float:
    """CPU seconds used so far by this process, and by its ended children if asked."""
    t = time.process_time()
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += ru.ru_utime + ru.ru_stime
    return t


def run_loop(wl, seconds: float, max_ops: int, tracer):
    """Closed loop with one caller: the next op starts when the last ends.

    Runs for ``seconds`` and at least ``wl.min_ops`` ops, at most
    ``max_ops``.  Returns the (Outcome, wall seconds, CPU seconds, scaled
    CPU seconds) of each op, the wall time of the loop without the time
    spent condensing outputs into Outcomes and timing the speed loop, the
    speed-loop times (see ``speed.py``), and the peak RSS in MB after exactly
    ``wl.min_ops`` ops (None if the loop stops before them), so that the
    figure does not move with throughput.

    An op's CPU time is that of this process plus, for cli-cold, that of
    the CLI process it starts, which runs on the same core.  The program is
    single-threaded and does no I/O, so on an idle core the CPU time is the
    op's latency; on a shared host the wall time also holds the time other
    tenants hold the core.  The scaled CPU time divides out the speed of
    the core, measured by the speed loop before and after the op's stretch
    of SPEED_EVERY_S; ``run.py`` pins this process, and so the CLI
    processes, to the one core the loop measures.
    """
    records = []
    stream = wl.stream()
    children = isinstance(wl, CliWorkload)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak_rss_mb = None
    aside_s = 0.0
    marks = [speed_loop_s()]  # ops between marks j and j + 1 run at their mean
    since_mark = 0.0
    start = time.perf_counter()
    deadline = start + seconds if seconds > 0 else float("inf")
    while len(records) < max_ops:
        inp = next(stream)
        if tracer is not None:
            tracer.op = len(records)
            idx = tracer.begin("bench.op")
        c0 = cpu_now(children)
        t0 = time.perf_counter()
        try:
            out, error = wl.run_op(inp), None
        except Exception:  # a failed op is counted, not fatal to the run
            out, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        c1 = cpu_now(children)
        if tracer is not None:
            tracer.end(idx)
            tracer.op = spanlib.NO_OP
        try:
            outcome = Outcome(error=last_line(error)) if error else wl.outcome(out)
        except Exception:
            outcome = Outcome(error=f"unreadable output: {last_line(traceback.format_exc())}")
        del out
        records.append((outcome, t1 - t0, c1 - c0, len(marks) - 1))
        since_mark += c1 - c0
        if since_mark >= SPEED_EVERY_S:
            marks.append(speed_loop_s())
            since_mark = 0.0
        aside_s += time.perf_counter() - t1
        if len(records) == wl.min_ops:
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        if t1 >= deadline and len(records) >= wl.min_ops:
            break
    wall = time.perf_counter() - start - aside_s
    if records[-1][3] == len(marks) - 1:
        marks.append(speed_loop_s())
    scaled = [
        (outcome, dt, cpu, cpu * 2 * SPEED_REF_S / (marks[j] + marks[j + 1]))
        for outcome, dt, cpu, j in records
    ]
    return scaled, wall, marks, peak_rss_mb


def check_all(wl, records, inject_wrong_reference: bool):
    """Check each op's Outcome against the reference, inputs regenerated."""
    failures = []
    ref_s = 0.0
    for n, (inp, (outcome, *_)) in enumerate(zip(wl.stream(), records)):
        if outcome.error:
            failures.append(f"op {n}: {outcome.error}")
            continue
        t0 = time.perf_counter()
        try:
            ref = wl.reference_list(inp)
        except Exception:
            failures.append(f"op {n}: reference raised: {traceback.format_exc()}")
            continue
        ref_s += time.perf_counter() - t0
        if inject_wrong_reference and n == 0:
            ref = ref[:-1] if ref else [None]
        problem = wl.check(inp, outcome, ref)
        if problem:
            failures.append(f"op {n}: {problem}")
    return failures, ref_s


FUNCTION_SPANS = (
    "listdec.decode_list",
    "listdec.assemble_system",
    "matgf.solve_affine",
    "matgf.rank",
    "matgf.rref",
    "matgf.rref_rows",
    "gabidulin.subspace_distance",
    "gabidulin.encode",
    "gabidulin.lift",
    "gabidulin.message_of",
    "pluecker.ball_equations",
    "pluecker.embed",
    "channel.corrupt",
)


def layer_metrics(wl, records, tracer, absent) -> dict:
    """Per-op layer figures from the spans of the timed ops."""
    spans = tracer.spans
    n_ops = len(records)
    summary = spanlib.summarize(spans)
    calls, self_ns = summary["calls"], summary["self_ns"]

    def per_op(value):
        return value / n_ops

    out: dict[str, float] = {}

    for layer in spanlib.LAYERS:
        names = [s for s in calls if s.split(".")[0] == layer]
        out[f"{layer}.self_ms_per_op"] = per_op(sum(self_ns[s] for s in names)) / 1e6
        out[f"{layer}.calls_per_op"] = per_op(sum(calls[s] for s in names))
    out["bench.self_ms_per_op"] = per_op(self_ns.get("bench.op", 0)) / 1e6

    for name in FUNCTION_SPANS:
        out[f"{name}.calls"] = per_op(calls.get(name, 0))
        out[f"{name}.self_ms_per_op"] = per_op(self_ns.get(name, 0)) / 1e6
    out["listdec.build_block_code.calls"] = per_op(calls.get("listdec.build_block_code", 0))

    candidates = entries = 0
    paths = {"coset": 0, "projected": 0, "infeasible": 0}
    for outcome, *_ in records:  # a failed op has the zero Outcome
        candidates += outcome.candidates
        entries += outcome.size
        if outcome.path in paths:
            paths[outcome.path] += 1
    out["listdec.candidates_per_op"] = per_op(candidates)
    out["listdec.useful_ratio"] = entries / candidates if candidates else 0.0
    for path, count in paths.items():
        out[f"listdec.path.{path}"] = per_op(count)

    embeds_in_decode = distances_in_corrupt = 0
    corrupts_sampling = set()
    for idx, (name, _, _, parent, op) in enumerate(spans):
        if op == spanlib.NO_OP:
            continue
        if name == "pluecker.embed" and spanlib.has_ancestor(spans, idx, "listdec.decode_list"):
            embeds_in_decode += 1
        elif name == "gabidulin.subspace_distance" and parent >= 0 and spans[parent][0] == "channel.corrupt":
            distances_in_corrupt += 1
            corrupts_sampling.add(parent)
    out["listdec.memo_miss_ratio"] = embeds_in_decode / candidates if candidates else 0.0
    # share of sampled candidates that corrupt accepts; t = 0 samples nothing
    out["channel.corrupt.accept_ratio"] = (
        len(corrupts_sampling) / distances_in_corrupt if distances_in_corrupt else 0.0
    )

    op_ns = sum(e - s for name, s, e, _, op in spans if name == "bench.op" and op != spanlib.NO_OP)
    latency_ns = sum(dt for _, dt, *_ in records) * 1e9
    out["trace.op_ms_per_op"] = per_op(op_ns) / 1e6
    # the spans' self times against the op latencies of the loop's own clock
    out["trace.self_sum_ratio"] = sum(self_ns.values()) / latency_ns if latency_ns else 0.0
    out["trace.spans_per_op"] = per_op(sum(calls.values()))
    out["trace.absent_names"] = float(len(absent))
    return out


def tail(latencies: list[float], min_ops: int) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    The percentile is the one that leaves ten samples beyond it at
    ``min_ops`` ops, the fewest a run makes, so it is the same in every run
    of a workload however many ops fit; a faster program does not move its
    tail further out.  Returns (value, percentile, samples beyond).
    """
    ordered = sorted(latencies)
    kept = min_ops - 10
    i = max(0, -(-len(ordered) * kept // min_ops) - 1)
    return ordered[i], 100.0 * kept / min_ops, len(ordered) - 1 - i


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=sys.maxsize)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-wrong-reference", action="store_true")
    args = ap.parse_args()

    traced = bool(args.trace)
    wl = make_workload(args.workload, args.seed, os.environ.copy())
    for inp in wl.warmup_inputs():
        wl.run_op(inp)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"speed_s": speed_loop_s()}), flush=True)
        return 0

    tracer = absent = None
    if traced:
        tracer = spanlib.Tracer()
        absent = tracer.install()
        if isinstance(wl, CliWorkload):
            wl.tracer = tracer
    records, wall, marks, peak_rss_mb = run_loop(wl, args.seconds, args.ops, tracer)

    failures, ref_s = check_all(wl, records, args.inject_wrong_reference)
    latencies = [scaled * 1e3 for *_, scaled in records]
    cpu_s = sum(cpu for _, _, cpu, _ in records)
    tail_ms, tail_pct, tail_beyond = tail(latencies, wl.min_ops)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "wall_s": wall,
        "cpu_s": cpu_s,
        "ops_per_s": len(records) * 1e3 / sum(latencies),
        "op_p50_ms": statistics.median(latencies),
        "core_speed": SPEED_REF_S / statistics.median(marks),
        "speed_at_ready_s": marks[0],
        "cpu_ops_per_s": len(records) / cpu_s,
        "cpu_op_p50_ms": statistics.median(cpu for _, _, cpu, _ in records) * 1e3,
        "wall_ops_per_s": len(records) / wall,
        "wall_op_p50_ms": statistics.median(dt for _, dt, *_ in records) * 1e3,
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": tail_beyond,
        "peak_rss_mb": peak_rss_mb,
        "min_ops": wl.min_ops,
        "reference": wl.reference,
        "reference_ms_per_op": ref_s * 1e3 / len(records),
    }
    if traced:
        tracer.uninstall()
        result["layers"] = layer_metrics(wl, records, tracer, absent)
        result["layers"]["listdec.reference_ms_per_op"] = result["reference_ms_per_op"]
        result["absent"] = absent
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        result["spans_file"] = str(trace_path.relative_to(ROOT))
    result["input_digest"] = input_digest(wl)
    result["digest_ops"] = DIGEST_OPS
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
