import pytest

from plueckerdec.errors import ChannelError
from plueckerdec.gf import FieldCtx
from plueckerdec.matgf import MatGF
from plueckerdec.gabidulin import (
    Subspace,
    encode,
    enumerate_messages,
    lift,
    make_code,
    subspace_distance,
)
from plueckerdec.channel import RETRY_BUDGET, ChannelConfig, corrupt, simulate_trials
from plueckerdec.listdec import decode_list


def lifted_codeword(code, index=0):
    msgs = list(enumerate_messages(code))
    return lift(encode(code, msgs[index]))


def test_corrupt_noop_at_zero_errors(demo_code):
    c = lifted_codeword(demo_code, 1)
    assert corrupt(c, ChannelConfig(seed=5, t=0)) == c


def test_corrupt_deterministic(demo_code):
    c = lifted_codeword(demo_code, 2)
    cfg = ChannelConfig(seed=1234, t=1)
    assert corrupt(c, cfg) == corrupt(c, cfg)
    other = corrupt(c, ChannelConfig(seed=1235, t=1))
    assert isinstance(other, Subspace)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_corrupt_exact_distance(demo_code, t):
    c = lifted_codeword(demo_code, 3)
    for seed in range(25):
        r = corrupt(c, ChannelConfig(seed=seed, t=t))
        assert r.k == c.k
        assert subspace_distance(r, c) == 2 * t


def test_corrupt_full_errors_means_trivial_intersection(demo_code):
    c = lifted_codeword(demo_code, 1)
    r = corrupt(c, ChannelConfig(seed=9, t=c.k))
    assert subspace_distance(r, c) == 2 * c.k


def test_corrupt_too_many_errors(demo_code):
    c = lifted_codeword(demo_code, 1)
    with pytest.raises(ChannelError):
        corrupt(c, ChannelConfig(seed=1, t=3))
    with pytest.raises(ChannelError):
        ChannelConfig(seed=1, t=-1)


def test_corrupt_exhausts_retries_when_unreachable():
    # the full space is the only 2-dimensional subspace of F_2^2
    full = Subspace(MatGF.identity(FieldCtx(2), 2))
    with pytest.raises(ChannelError, match=f"within {RETRY_BUDGET} attempts"):
        corrupt(full, ChannelConfig(seed=3, t=1))


def test_closed_loop_unique_regime():
    code = make_code(2, 6, 3, 3)  # delta = 3: one error is uniquely decodable
    sent = lifted_codeword(code, 5)
    for seed in range(20):
        received = corrupt(sent, ChannelConfig(seed=seed, t=1))
        result = decode_list(code, received, 1)
        assert result.subspaces() == {sent}


def test_closed_loop_list_regime(demo_code):
    sent = lifted_codeword(demo_code, 2)
    for seed in range(20):
        received = corrupt(sent, ChannelConfig(seed=seed, t=1))
        result = decode_list(demo_code, received, 1)
        assert sent in result.subspaces()


def test_simulate_trials_shape_and_determinism(demo_code):
    rows = list(simulate_trials(demo_code, t=1, trials=5, seed=77))
    again = list(simulate_trials(demo_code, t=1, trials=5, seed=77))
    assert rows == again
    assert [r["seed"] for r in rows] == [77, 78, 79, 80, 81]
    for r in rows:
        assert set(r) == {"seed", "distance", "list_size", "success"}
        assert r["distance"] == 2
        assert r["success"] is True
        assert r["list_size"] >= 1


def test_simulate_trials_rejects_negative_count(demo_code):
    with pytest.raises(ChannelError):
        list(simulate_trials(demo_code, t=1, trials=-3, seed=77))
    assert list(simulate_trials(demo_code, t=1, trials=0, seed=77)) == []
