#!/usr/bin/env python3
"""Decode sweep: one SHA-256 and one wall time per (parameter set, strategy).

Each round draws, for every set, a uniform received space, a lifted
codeword and a codeword corrupted by t errors (t uniform in 0..k), and
decodes each at every radius e with all three strategies.  A digest
covers its decodes in order: the entries (message, codeword matrix,
lifted basis, packed Pluecker vector) and the stats without
`elapsed_ms`.  Two runs with the same --seed and --rounds print the same
digests exactly when they decode alike, so a diff of two runs shows
whether a change keeps every list, its order and its stats.  Wall times
are in-process; `reduced`, which runs before `oracle`, pays for building
the code table both read.  Exits 1 if two strategies list different
entries for any decode.

    PYTHONPATH=src python scripts/decode_sweep.py --seed 1 --rounds 4
"""

import argparse
import hashlib
import random
import sys
import time

from plueckerdec.channel import ChannelConfig, corrupt
from plueckerdec.gabidulin import encode, lift, random_subspace
from plueckerdec.listdec import STRATEGIES, decode_list
from plueckerdec.params import SMALL_PARAMETER_SETS, ParamSet

# Beyond the shipped sets: n = 7 and 8 codes of up to 6,561 codewords, and
# q = 7 and 11, whose solver images need wider slots than their rows.
EXTRA_SETS = tuple(
    ParamSet(*p)
    for p in ((2, 7, 3, 2), (2, 7, 3, 3), (3, 7, 3, 3), (2, 8, 4, 2), (3, 7, 3, 2),
              (5, 6, 3, 3), (7, 6, 3, 3), (11, 4, 2, 2))
)


def received_spaces(code, rng):
    """A uniform space, a lifted codeword and a corrupted codeword."""
    def codeword():
        msg = [code.ext.element_at(rng.randrange(code.ext.order)) for _ in range(code.msg_len)]
        return lift(encode(code, msg))

    uniform = random_subspace(code.ext.base, code.n, code.k, rng)
    lifted = codeword()
    cfg = ChannelConfig(seed=rng.randrange(2**32), t=rng.randrange(code.k + 1))
    return uniform, lifted, corrupt(codeword(), cfg)


def record(result) -> bytes:
    """What the digest covers of one decode."""
    entries = [
        (
            [x.coeffs for x in en.message],
            en.codeword.mat.entries,
            en.subspace.basis.entries,
            en.pluecker.packed,
        )
        for en in result.entries
    ]
    stats = sorted((k, v) for k, v in result.stats.items() if k != "elapsed_ms")
    return repr((entries, stats)).encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args()

    disagreements = 0
    print(f"{'set':<16} {'strategy':<8} {'decodes':>7} {'wall_s':>8}  sha256")
    for ps in SMALL_PARAMETER_SETS + EXTRA_SETS:
        code, rng = ps.build(), random.Random(f"{args.seed}:{ps.label()}")
        spaces = [r for _ in range(args.rounds) for r in received_spaces(code, rng)]
        lists = {}
        for strategy in STRATEGIES:
            digest, wall, out = hashlib.sha256(), 0.0, []
            for r in spaces:
                for e in range(code.k + 1):
                    start = time.perf_counter()
                    result = decode_list(code, r, e, strategy)
                    wall += time.perf_counter() - start
                    digest.update(record(result))
                    out.append([en.message for en in result.entries])
            lists[strategy] = out
            print(f"{ps.label():<16} {strategy:<8} {len(out):>7} {wall:>8.3f}  {digest.hexdigest()}")
        for strategy in STRATEGIES[1:]:
            bad = sum(a != b for a, b in zip(lists[STRATEGIES[0]], lists[strategy]))
            if bad:
                print(f"{ps.label()}: {strategy} differs from {STRATEGIES[0]} on {bad} decodes")
                disagreements += bad
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
