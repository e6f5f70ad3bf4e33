import io
import json
from pathlib import Path

import pytest

from plueckerdec.cli import main, parse_element
from plueckerdec.gf import ext_field

GOLDEN = Path(__file__).parent / "golden"

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
    ],
    ids=["shuffle-k0", "shuffle-k-above-n", "embed-zero-space"],
)
def test_degenerate_grassmannian_is_domain_error(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert json.loads(err)["module"] == "pluecker"


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
