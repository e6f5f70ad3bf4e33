"""Seeded dimension-preserving corruption of transmitted subspaces.

The corruption keeps the dimension fixed and lands at an exact subspace
distance 2t from the input, by replacing t basis rows with random vectors
and rejection-sampling until the target distance is hit.  All randomness
comes from one seeded Mersenne Twister stream consumed in a fixed order
(row choice first, then replacement entries row by row), so results are
reproducible from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ChannelError
from .gabidulin import GabidulinCode, Subspace, encode, lift, subspace_distance
from .matgf import MatGF

RETRY_BUDGET = 1000


@dataclass(frozen=True)
class ChannelConfig:
    seed: int
    t: int

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ChannelError(f"error count must be >= 0, got {self.t}")


def corrupt(c: Subspace, cfg: ChannelConfig) -> Subspace:
    """A subspace of the same dimension at distance exactly 2t from c.

    Deterministic in (c, cfg).  Raises when t exceeds the dimension or
    when the retry budget runs out (the ambient space may be too small to
    reach the requested distance).
    """
    k, n, q = c.k, c.n, c.ctx.q
    if cfg.t > k:
        raise ChannelError(f"cannot place {cfg.t} errors in a {k}-dimensional space")
    if cfg.t == 0:
        return c
    rng = random.Random(cfg.seed)
    for _ in range(RETRY_BUDGET):
        replace = sorted(rng.sample(range(k), cfg.t))
        rows = c.basis.to_lists()
        for i in replace:
            rows[i] = [rng.randrange(q) for _ in range(n)]
        candidate = Subspace.from_matrix(MatGF.from_rows(c.ctx, rows))
        if candidate.k == k and subspace_distance(candidate, c) == 2 * cfg.t:
            return candidate
    raise ChannelError(
        f"no subspace at distance {2 * cfg.t} found within {RETRY_BUDGET} attempts"
    )


def simulate_trials(
    code: GabidulinCode,
    t: int,
    trials: int,
    seed: int,
    e: int | None = None,
    strategy: str = "paper",
):
    """Corrupt-then-decode loop; yields one result dict per trial.

    Trial i derives its seed as seed + i; its stream supplies first the
    message symbols and then a fresh seed for the channel.  The decode
    radius e defaults to t.  A negative trial count raises ChannelError.
    """
    from .listdec import decode_list

    if trials < 0:
        raise ChannelError(f"trial count must be >= 0, got {trials}")
    if e is None:
        e = t
    for trial in range(trials):
        trial_seed = seed + trial
        rng = random.Random(trial_seed)
        msg = tuple(
            code.ext.element_at(rng.randrange(code.ext.order))
            for _ in range(code.msg_len)
        )
        sent = lift(encode(code, msg))
        received = corrupt(sent, ChannelConfig(seed=rng.randrange(2**63), t=t))
        result = decode_list(code, received, e, strategy)
        yield {
            "seed": trial_seed,
            "distance": subspace_distance(received, sent),
            "list_size": len(result.entries),
            "success": any(entry.subspace == sent for entry in result.entries),
        }
