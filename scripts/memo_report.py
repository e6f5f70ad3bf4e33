#!/usr/bin/env python3
"""Hits, misses and size of every memo in plueckerdec under seeded traffic.

Each round decodes, on every q <= 3 shipped parameter set, one uniform
received space and one codeword corrupted by t errors (t uniform in 0..k)
with `paper` at every radius e, then one uniform space on q3_n6_k3_d2 with
`oracle` at every radius.  The memos are every `functools.lru_cache` that a
plueckerdec module defines, cleared before the first round.
"""

import argparse
import importlib
import pkgutil
import random

import plueckerdec
from plueckerdec.channel import ChannelConfig, corrupt
from plueckerdec.gabidulin import encode, lift, random_subspace
from plueckerdec.listdec import decode_list
from plueckerdec.params import SMALL_PARAMETER_SETS

ORACLE_SET = "q3_n6_k3_d2"


def memos():
    """(module.function, lru_cache wrapper) for every memo, by module."""
    for info in pkgutil.iter_modules(plueckerdec.__path__):
        module = importlib.import_module(f"plueckerdec.{info.name}")
        for name, obj in sorted(vars(module).items()):
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                yield f"{info.name}.{name}", obj


def corrupted(code, rng):
    msg = [code.ext.element_at(rng.randrange(code.ext.order)) for _ in range(code.msg_len)]
    t = rng.randrange(code.k + 1)
    return corrupt(lift(encode(code, msg)), ChannelConfig(seed=rng.randrange(2**32), t=t))


def replay(rounds: int, seed: int) -> None:
    rng = random.Random(seed)
    sets = [(ps, ps.build()) for ps in SMALL_PARAMETER_SETS if ps.q <= 3]
    for _ in range(rounds):
        for ps, code in sets:
            for r in (random_subspace(code.ext.base, ps.n, ps.k, rng), corrupted(code, rng)):
                for e in range(ps.k + 1):
                    decode_list(code, r, e, "paper")
        ps, code = next((ps, code) for ps, code in sets if ps.label() == ORACLE_SET)
        r = random_subspace(code.ext.base, ps.n, ps.k, rng)
        for e in range(ps.k + 1):
            decode_list(code, r, e, "oracle")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    table = list(memos())
    for _, memo in table:
        memo.cache_clear()
    replay(args.rounds, args.seed)

    header = f"{'memo':<32} {'hits':>8} {'misses':>8} {'size':>8} {'hit %':>6}"
    print(header)
    print("-" * len(header))
    for name, memo in table:
        info = memo.cache_info()
        calls = info.hits + info.misses
        rate = f"{100 * info.hits / calls:.1f}" if calls else "-"
        print(f"{name:<32} {info.hits:>8} {info.misses:>8} {info.currsize:>8} {rate:>6}")


if __name__ == "__main__":
    main()
