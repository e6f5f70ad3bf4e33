import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plueckerdec.cli import emit, main, parse_element
from plueckerdec.listdec import STRATEGIES
from plueckerdec.gf import ext_field

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

DEMO = ["--q", "2", "--n", "4", "--k", "2", "--delta", "2", "--g", "alpha,1"]


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize(
    "name,argv",
    [
        ("example8_code.txt", ["code", *DEMO]),
        ("example8_blockcode.txt", ["blockcode", *DEMO]),
        (
            "decode_r1.txt",
            ["decode", *DEMO, "--received", "1 0 1 0;0 0 0 1", "--e", "1"],
        ),
        (
            "decode_r2.txt",
            ["decode", *DEMO, "--received", "1 0 0 1;0 1 1 1", "--e", "1"],
        ),
        ("shuffle_g24.txt", ["shuffle", "--q", "2", "--n", "4", "--k", "2"]),
        (
            "ball_r1.txt",
            ["ball", "--q", "2", "--n", "4", "--k", "2",
             "--received", "1 0 1 0;0 0 0 1", "--e", "1"],
        ),
    ],
)
def test_golden_outputs(capsys, name, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0
    assert err == ""
    assert out == (GOLDEN / name).read_text()


def test_ball_with_e_equal_k(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["ball", "--q", "2", "--received", "1 0 1 0;0 0 0 1", "--e", "2"],
    )
    assert rc == 0
    assert "tau=0" in out
    assert "forbidden tuples: none" in out


def test_decode_json_schema(capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "decode", *DEMO,
            "--received", "1 0 0 1;0 1 1 1", "--e", "1", "--format", "json",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["received"] == [[1, 0, 0, 1], [0, 1, 1, 1]]
    assert payload["e"] == 1
    assert payload["strategy"] == "paper"
    assert len(payload["list"]) == 3
    entry = payload["list"][0]
    assert set(entry) == {"message", "codeword_matrix", "lifted_basis", "pluecker"}
    stats = payload["stats"]
    for key in ("linear_eqs", "quadratic_eqs", "vars", "candidates_enumerated", "elapsed_ms"):
        assert key in stats


def test_encode_and_embed_json_schemas(capsys):
    rc, out, _ = run_cli(
        capsys, ["encode", *DEMO, "--msg", "alpha", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"vec": [[1, 1], [0, 1]], "mat": [[1, 1], [0, 1]]}
    rc, out, _ = run_cli(
        capsys,
        ["embed", "--q", "2", "--matrix", "1 0 1 1;0 1 0 1", "--format", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"n": 4, "k": 2, "coords": [1, 0, 1, 1, 1, 1]}


def test_decode_strategies_equal_output(capsys):
    outs = []
    for strategy in ("paper", "reduced", "oracle"):
        rc, out, _ = run_cli(
            capsys,
            [
                "decode", *DEMO,
                "--received", "1 0 1 0;0 0 0 1", "--e", "1",
                "--strategy", strategy, "--format", "json",
            ],
        )
        assert rc == 0
        payload = json.loads(out)
        outs.append(payload["list"])
    assert outs[0] == outs[1] == outs[2]


def test_bracket_elements_inside_element_lists(capsys):
    """--g and --msg split at top-level commas only, so the bracket form
    may list several coefficients."""
    received = ["--received", "1 0 1 0;0 0 0 1", "--e", "1", "--format", "json"]
    code = ["--q", "2", "--n", "4", "--k", "2", "--delta", "2"]
    outs = []
    for g in ("[1,1],alpha", "alpha+1,[0,1]", "alpha+1,alpha"):
        rc, out, err = run_cli(capsys, ["decode", *code, "--g", g, *received])
        assert (rc, err) == (0, "")
        outs.append(json.loads(out)["list"])
    assert outs[0] == outs[1] == outs[2]
    rc, out, _ = run_cli(capsys, ["encode", *DEMO, "--msg", "[0,1]", "--format", "json"])
    assert rc == 0 and json.loads(out) == {"vec": [[1, 1], [0, 1]], "mat": [[1, 1], [0, 1]]}
    rc, _, err = run_cli(capsys, ["decode", *code, "--g", "[1,1,alpha", *received])
    assert rc == 1 and json.loads(err)["module"] == "gf"


def test_encode_lift_embed_roundtrip(capsys, monkeypatch):
    rc, encoded, _ = run_cli(
        capsys, ["encode", *DEMO, "--msg", "alpha"]
    )
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(encoded))
    rc, lifted, _ = run_cli(capsys, ["lift", "--q", "2", "--matrix", "-"])
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(lifted))
    rc, embedded, _ = run_cli(capsys, ["embed", "--q", "2", "--matrix", "-"])
    assert rc == 0
    rc, direct, _ = run_cli(
        capsys, ["embed", "--q", "2", "--matrix", "1 0 1 1;0 1 0 1"]
    )
    assert embedded == direct == "[1:0:1:1:1:1]\n"


def test_matrix_from_file(capsys, tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text("1 0 1 0\n0 0 0 1\n")
    rc, out, _ = run_cli(
        capsys, ["decode", *DEMO, "--received", f"@{path}", "--e", "1"]
    )
    assert rc == 0
    assert "list size: 2" in out


@pytest.mark.parametrize("flag", ["--received", "--matrix"])
def test_missing_matrix_file_is_domain_error(capsys, tmp_path, flag):
    path = f"@{tmp_path / 'missing.txt'}"
    if flag == "--received":
        argv = ["decode", *DEMO, "--received", path, "--e", "1"]
    else:
        argv = ["embed", "--q", "2", "--matrix", path]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    detail = json.loads(err)
    assert detail["module"] == "matgf"
    assert "missing.txt" in detail["error"]


def test_domain_error_exit_code_and_json(capsys):
    rc, out, err = run_cli(
        capsys,
        ["decode", *DEMO, "--received", "1 0 1 0", "--e", "1"],
    )
    assert rc == 1
    assert out == ""
    detail = json.loads(err)
    assert detail["module"] == "listdec"
    assert "dimension" in detail["error"]


def test_domain_error_names_originating_module(capsys):
    rc, _, err = run_cli(
        capsys,
        ["code", "--q", "4", "--n", "4", "--k", "2", "--delta", "2"],
    )
    assert rc == 1
    assert json.loads(err)["module"] == "gf"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--q", "2"])
    assert exc.value.code == 2


def test_invalid_parameters_rejected(capsys):
    # k > n - k violates the standing assumption
    rc, _, err = run_cli(
        capsys, ["code", "--q", "2", "--n", "4", "--k", "3", "--delta", "2"]
    )
    assert rc == 1
    assert json.loads(err)["module"] == "gabidulin"


def test_oversized_code_fails_at_once(capsys):
    # 3^15 codewords, over the enumeration cap: rejected before any output
    rc, out, err = run_cli(
        capsys, ["code", "--q", "3", "--n", "10", "--k", "5", "--delta", "3"]
    )
    assert rc == 1
    assert out == ""
    detail = json.loads(err)
    assert detail["module"] == "gabidulin"
    assert "enumeration cap" in detail["error"]


def test_code_json_is_unchanged(capsys):
    """`code --format json` on q3_n6_k3_d2, printed from the code table, is
    byte for byte the output of the encode -> lift -> embed construction
    (its SHA-256 recorded from that construction)."""
    rc, out, _ = run_cli(
        capsys, ["code", "--q", "3", "--n", "6", "--k", "3", "--delta", "2", "--format", "json"]
    )
    assert rc == 0
    digest = "b62eccd15458206b79332036cc94073a68774d4cb0d109158dea5efd9ec9c49d"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_large_prime_field_builds_at_once(capsys):
    """The modulus check is polynomial in log q: x^2 + 1 over F_1000003."""
    start = time.perf_counter()
    rc, out, _ = run_cli(
        capsys,
        ["decode", "--q", "1000003", "--n", "4", "--k", "2", "--delta", "2",
         "--modulus", "1,0,1", "--g", "alpha,1", "--received", "1 0 1 0;0 1 0 1",
         "--e", "0"],
    )
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    assert out.splitlines()[-1] == "list size: 0"


def test_simulate_json_lines(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["simulate", *DEMO, "--t", "1", "--trials", "3", "--seed", "11"],
    )
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {"seed", "distance", "list_size", "success"}
        assert row["distance"] == 2
        assert row["success"] is True


def test_simulate_negative_trials_is_domain_error(capsys):
    rc, out, err = run_cli(
        capsys,
        ["simulate", *DEMO, "--t", "1", "--trials", "-3", "--seed", "11"],
    )
    assert rc == 1
    assert out == ""
    assert json.loads(err)["module"] == "channel"


@pytest.mark.parametrize(
    "argv",
    [
        ["shuffle", "--q", "2", "--n", "0", "--k", "0"],
        ["shuffle", "--q", "2", "--n", "3", "--k", "5"],
        ["embed", "--q", "3", "--matrix", "0 0 0;0 0 0"],
        ["ball", "--q", "2", "--received", "0 0 0 0", "--e", "0"],
    ],
    ids=["shuffle-k0", "shuffle-k-above-n", "embed-zero-space", "ball-zero-space"],
)
def test_degenerate_grassmannian_is_domain_error(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert json.loads(err)["module"] == "pluecker"


def _stair(k: int, n: int) -> str:
    """The RREF text matrix [I_k | I_k | 0] of a k-dimensional subspace of F_2^n."""
    return ";".join(" ".join("1" if j in (i, k + i) else "0" for j in range(n)) for i in range(k))


# The child times `call` alone, after `setup`; a DomainError becomes the
# CLI's error JSON on stderr and exit status 1.
_BOUNDED_CHILD = """\
import json, sys, time
from plueckerdec import Subspace, decode_list, make_code
from plueckerdec.cli import main
from plueckerdec.errors import DomainError
from plueckerdec.gf import FieldCtx
from plueckerdec.matgf import mat_from_text
from plueckerdec.pluecker import ball_equations
{setup}
start = time.perf_counter()
try:
    rc = {call}
except DomainError as err:
    print(json.dumps({{"module": err.module, "error": str(err)}}), file=sys.stderr)
    rc = 1
print(time.perf_counter() - start)
sys.exit(rc if isinstance(rc, int) else 0)
"""


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "setup,call",
    [
        ("", 'main(["shuffle", "--q", "2", "--n", "40", "--k", "12"])'),
        ("", f'main(["embed", "--q", "2", "--matrix", "{_stair(12, 40)}"])'),
        ("", f'main(["ball", "--q", "2", "--received", "{_stair(12, 40)}", "--e", "0"])'),
        (f'r = Subspace(mat_from_text(FieldCtx(2), "{_stair(12, 40)}"))', "ball_equations(r, 0)"),
        ("", f'main(["ball", "--q", "2", "--received", "{_stair(7, 14)}", "--e", "0"])'),
        (f'r = Subspace(mat_from_text(FieldCtx(2), "{_stair(7, 14)}"))', "ball_equations(r, 0)"),
        (
            "code = make_code(2, 24, 12, 12, modulus=[1, 0, 0, 1] + [0] * 8 + [1])\n"
            f'r = Subspace(mat_from_text(FieldCtx(2), "{_stair(12, 24)}"))',
            'decode_list(code, r, 1, "reduced")',
        ),
    ],
    ids=[
        "shuffle-C40-24", "embed-12x40", "ball-12x40", "ball_equations-12x40",
        "ball-7x14", "ball_equations-7x14", "decode-reduced-24-12",
    ],
)
def test_oversized_grassmannian_fails_at_once(setup, call):
    """C(40, 24) relations, C(40, 12) coordinates or ball-form columns, the
    3,431 x 3,432 ball-form coefficients at (14, 7) and e = 0, and the
    C(24, 12) coordinates of a decode, all over the enumeration cap: an
    error before the minor plan or any other enumeration is built.  Each call runs in a child
    limited to 1 GiB of address space and 10 s, so a cap checked after the
    work it bounds fails here instead of stalling the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _BOUNDED_CHILD.format(setup=setup, call=call)],
        env=env, capture_output=True, text=True, timeout=10, preexec_fn=_limit_address_space,
    )
    assert done.returncode == 1, done.stderr
    *out, seconds = done.stdout.splitlines()
    assert out == []
    assert float(seconds) < 1.0
    detail = json.loads(done.stderr)
    assert detail["module"] == "pluecker"
    assert "enumeration cap" in detail["error"]


@pytest.mark.parametrize(
    "argv,rc,printed",
    [
        (["embed", "--q", str(2**61 - 1), "--matrix", "1 0"], 0, ["[1:0]"]),
        (["code", "--q", "3", "--n", "10000003", "--k", "3", "--delta", "2"], 1, []),
    ],
    ids=["embed-q-2^61-1", "code-ell-10^7"],
)
def test_huge_field_parameters_finish_at_once(argv, rc, printed):
    """A 61-bit prime q is decided by Miller-Rabin, not by sqrt(q) trial
    divisions, and an extension degree of 10^7 has no default modulus,
    decided without forming q^ell.  Bounded children, as above."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _BOUNDED_CHILD.format(setup="", call=f"main({argv!r})")],
        env=env, capture_output=True, text=True, timeout=10, preexec_fn=_limit_address_space,
    )
    assert done.returncode == rc, done.stderr
    *out, seconds = done.stdout.splitlines()
    assert out == printed
    assert float(seconds) < 1.0
    if rc:
        assert json.loads(done.stderr)["module"] == "gf"


def test_default_modulus_beyond_the_old_table(capsys):
    """q = 7 has a default modulus now: the first monic irreducible, x^2 + 1."""
    argv = ["decode", "--q", "7", "--n", "4", "--k", "2", "--delta", "2",
            "--received", "1 0 1 0;0 1 0 1", "--e", "1"]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "") and "list size: 1" in out
    assert run_cli(capsys, [*argv, "--modulus", "1,0,1"]) == (rc, out, err)


def test_emit_builds_only_the_chosen_format(capsys):
    def unused():
        raise AssertionError("built the format that is not printed")

    assert emit(Namespace(format="json"), unused, lambda: {"a": 1}) == 0
    assert emit(Namespace(format="text"), lambda: ["a", "b"], unused) == 0
    assert capsys.readouterr().out == '{"a": 1}\na\nb\n'


def test_element_grammar():
    ext = ext_field(2, 2)
    assert parse_element(ext, "alpha") == ext.alpha()
    assert parse_element(ext, "[0,1]") == ext.alpha()
    assert parse_element(ext, "alpha^2") == ext.alpha() ** 2
    assert parse_element(ext, "alpha+1") == ext.alpha() + ext.one()
    ext3 = ext_field(3, 2)
    assert parse_element(ext3, "2*alpha+2") == ext3.element([2, 2])
    assert parse_element(ext3, "-alpha") == -ext3.alpha()
    from plueckerdec.errors import FieldError

    with pytest.raises(FieldError):
        parse_element(ext, "beta+1")
    with pytest.raises(FieldError):
        parse_element(ext, "")


# -- fuzzing the documented grammar ------------------------------------------
# Each argument is drawn well-formed three times in four, so that about one
# decode in five gets past validation; q >= 5 keeps n <= 5, so no code drawn
# over F_5 or F_7 has more than 7^3 codewords, and every code over the
# 61-bit prime field is over the enumeration cap.

small = st.integers(-1, 6)


@st.composite
def mostly(draw, valid, wild):
    return draw(valid if draw(st.integers(0, 3)) else wild)


@st.composite
def matrix_texts(draw, rows, cols):
    rows, cols = draw(mostly(st.just((max(rows, 0), max(cols, 0))),
                             st.tuples(st.integers(0, 4), st.integers(0, 6))))
    cells = st.lists(st.integers(-2, 6), min_size=cols, max_size=cols)
    grid = draw(st.lists(cells, min_size=rows, max_size=rows))
    text = ";".join(" ".join(map(str, row)) for row in grid)
    return draw(mostly(st.just(text), st.just("@no/such/file.txt") | st.text("012 ;-x\n", max_size=12)))


@st.composite
def code_args(draw):
    q = draw(mostly(st.sampled_from([2, 3, 5, 7, 2**61 - 1]), st.sampled_from([-1, 0, 1, 4])))
    shapes = [(4, 2, 2), (5, 2, 2)] + ([(6, 3, 3), (6, 3, 2)] if q < 5 else [])
    wild = st.tuples(st.integers(-1, 5 if q >= 5 else 6), small, small)
    n, k, delta = draw(mostly(st.sampled_from(shapes), wild))
    argv = ["--q", str(q), "--n", str(n), "--k", str(k), "--delta", str(delta)]
    for flag, options in (
        ("--modulus", ["1,1,1", "1,1", "2,1,1", "1,0,1", "1,1,0,1", "2,1,0,1", "0", "", "a", "-1,1"]),
        ("--g", ["alpha,1", "1,alpha", "[1,1],alpha", "alpha^2,alpha,1", "1,1", "alpha^", "[]",
                 "[1.5]", "", "-alpha,2*alpha", "alpha^-1,1", "[0,1],[1,1]", "alpha,[1,0,1]",
                 "[1,1,1],alpha,1", "[0,1,1],[1,0,0],[0,0,1]", "[1,1", "1],[0,1]"]),
    ):
        value = draw(mostly(st.none(), st.sampled_from(options)))
        if value is not None:
            argv += [flag, value]
    return argv, n, k


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["decode", "embed", "ball", "shuffle", "code"]))
    fmt = ["--format", draw(st.sampled_from(["text", "json"]))]
    if command in ("code", "decode"):
        args, n, k = draw(code_args())
        if command == "code":
            return ["code", *args, *fmt]
        e = draw(mostly(st.integers(0, max(k, 0)), small))
        return ["decode", *args, "--received", draw(matrix_texts(k, n)), "--e", str(e),
                "--strategy", draw(st.sampled_from(STRATEGIES)), *fmt]
    q = draw(mostly(st.sampled_from([2, 3, 5]), small))
    n, k = draw(mostly(st.sampled_from([(4, 2), (5, 2), (6, 3), (3, 1)]), st.tuples(small, small)))
    if command == "shuffle":
        return ["shuffle", "--q", str(q), "--n", str(n), "--k", str(k), *fmt]
    if command == "embed":
        return ["embed", "--q", str(q), "--matrix", draw(matrix_texts(k, n)), *fmt]
    dims = []
    for flag, value in (("--n", n), ("--k", k)):
        if draw(st.booleans()):
            dims += [flag, str(draw(mostly(st.just(value), small)))]
    e = draw(mostly(st.integers(0, max(k, 0)), small))
    return ["ball", "--q", str(q), *dims, "--received", draw(matrix_texts(k, n)), "--e", str(e), *fmt]


@settings(max_examples=300)
@given(cli_argvs())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    # a drawn "-" reads the matrix from an empty stdin
    with redirect_stdout(out), redirect_stderr(err), patch("sys.stdin", io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    assert rc in (0, 1, 2)
    if rc == 1:
        detail = json.loads(err.getvalue())
        assert set(detail) == {"module", "error"}
