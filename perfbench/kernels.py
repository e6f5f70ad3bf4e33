"""Fixed-size kernel rows and the cold-start split of the CLI.

Run by ``run.py`` in a fresh process during a traced run; prints one JSON
object.  The sizes match the layer table of ROADMAP.md: F_256 multiply and
inverse, 6x6 rank over F_3, ``embed`` and cold ``ball_equations`` on
G_3(3, 6).  ``cli.main_warm_ms`` calls ``cli.main`` in process on the
cli-cold argv of this seed after one warm call.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import operator
import random
import statistics
import subprocess
import sys
import time

from plueckerdec import cli, gabidulin, gf, matgf, pluecker

import workload

REPEATS = 5


def per_call_us(fn, batches) -> float:
    """Median over batches of the mean time per call, in microseconds."""
    samples = []
    for batch in batches:
        t0 = time.perf_counter()
        for args in batch:
            fn(*args)
        samples.append((time.perf_counter() - t0) / len(batch) * 1e6)
    return statistics.median(samples)


def wall_ms(cmd, runs: int = REPEATS) -> float:
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=workload.ROOT)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def distinct_subspaces(rng, ps, count):
    seen, out = set(), []
    while len(out) < count:
        _, basis = workload.full_rank_matrix(rng, ps)
        if basis not in seen:
            seen.add(basis)
            out.append(gabidulin.Subspace(matgf.MatGF.from_rows(gf.FieldCtx(ps.q), basis)))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    rng = random.Random(f"{args.seed}/kernels")
    out = {}

    f256 = gf.ext_field(2, 8)

    def elems(count):
        return [f256.element_at(rng.randrange(1, 256)) for _ in range(count)]

    out["gf.mul_f256_us"] = per_call_us(
        operator.mul, [list(zip(elems(2000), elems(2000))) for _ in range(REPEATS)]
    )
    out["gf.inv_f256_us"] = per_call_us(
        gf.ExtElement.inverse, [[(x,) for x in elems(500)] for _ in range(REPEATS)]
    )

    f3 = gf.FieldCtx(3)
    out["matgf.rank_6x6_q3_us"] = per_call_us(matgf.rank, [
        [(matgf.random_matrix(f3, 6, 6, rng),) for _ in range(500)] for _ in range(REPEATS)
    ])

    spaces = distinct_subspaces(rng, workload.CLI_SET, 300 * REPEATS)
    out["pluecker.embed_q3n6k3_us"] = per_call_us(
        pluecker.embed, [[(s,) for s in spaces[i::REPEATS]] for i in range(REPEATS)]
    )
    # every space is new to the ball-equation cache, so each call is cold
    out["pluecker.ball_equations_cold_us"] = per_call_us(
        pluecker.ball_equations,
        [[(s, workload.CLI_E) for s in spaces[i::REPEATS]] for i in range(REPEATS)],
    )

    rows, _ = next(iter(workload.CliWorkload(args.seed, {}).stream()))
    argv = workload.CliWorkload.argv(rows)
    samples = []
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(REPEATS + 1):
            t0 = time.perf_counter()
            cli.main(argv)
            samples.append((time.perf_counter() - t0) * 1e3)
    out["cli.main_warm_ms"] = statistics.median(samples[1:])

    interp = wall_ms([sys.executable, "-c", "pass"])
    out["cli.interp_ms"] = interp
    out["cli.import_ms"] = wall_ms([sys.executable, "-c", "import plueckerdec.cli"]) - interp
    print(json.dumps(out))


if __name__ == "__main__":
    main()
