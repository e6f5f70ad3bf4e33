"""Every name a module imports is used, unless its line says `# noqa: F401`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "plueckerdec"
SOURCES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from x import (\n    a,\n    b,  # noqa: F401\n    c,\n)\nimport d.e\nd.f(a)\n"
    assert unused_imports(source) == ["line 4: c"]


def test_code_table_has_one_builder():
    """`listdec` builds every entry through `_entry_at` and `plueckerdec code`
    prints its table: neither reaches the definitional builders, which stay
    public as the tests' reference for that table."""
    listdec = ast.parse((SRC / "listdec.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(listdec) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"encode", "enumerate_messages", "embed"}
    cli = ast.parse((SRC / "cli.py").read_text())
    (cmd_code,) = (n for n in cli.body if isinstance(n, ast.FunctionDef) and n.name == "cmd_code")
    called = {
        n.func.id for n in ast.walk(cmd_code)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }
    assert not called & {"enumerate_code", "lift", "embed"}


def test_coordinates_have_one_minor_kernel():
    """In `pluecker` only the reference `phi_bar_columns` takes single minors
    (`_det_submatrix`); one rule (`_block_pattern`, the only user of
    `_minor_plan`) signs and places every minor of the patterns, and one
    reader (`_read_minors`, the only user of `_all_minors`) evaluates them.
    `listdec` reads lifted coordinates through `lifted_coordinates` and
    names no pattern internal."""
    pluecker = ast.parse((SRC / "pluecker.py").read_text())
    users: dict[str, set[str]] = {}
    for fn in pluecker.body:
        if isinstance(fn, ast.FunctionDef):
            for n in ast.walk(fn):
                if isinstance(n, ast.Name):
                    users.setdefault(n.id, set()).add(fn.name)
    assert users["_det_submatrix"] == {"phi_bar_columns"}
    assert users["_minor_plan"] == {"_block_pattern"}
    assert users["_all_minors"] == {"_read_minors"}
    assert users["_block_pattern"] == {"_lifted_table", "_ball_pattern"}
    assert users["_read_minors"] == {"lifted_coordinates", "_free_block_minors"}
    assert users["_free_block_minors"] == {"embed", "ball_equations"}
    listdec = ast.parse((SRC / "listdec.py").read_text())
    named = {n.id for n in ast.walk(listdec) if isinstance(n, ast.Name)} | {
        alias.asname or alias.name
        for node in ast.walk(listdec) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not named & {"_all_minors", "_minor_plan", "_read_minors", "_lifted_table"}
    assert "lifted_coordinates" in named



def subspace_keyed_memos(source: str) -> list[str]:
    """Functions decorated with `lru_cache` that take a `Subspace` parameter."""
    def is_lru_cache(node: ast.expr) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        return ast.unparse(target) in {"lru_cache", "functools.lru_cache"}

    return [
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef) and any(map(is_lru_cache, fn.decorator_list))
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.annotation is not None and "Subspace" in ast.unparse(arg.annotation)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_memo_is_keyed_by_a_received_space(path):
    """Patterns recur per pivot set and screens per candidate, but a received
    space seldom comes twice: no `lru_cache` takes a `Subspace`, so none
    holds forms or minors per space."""
    assert subspace_keyed_memos(path.read_text()) == []


def test_subspace_keyed_memo_is_reported():
    source = (
        "@lru_cache(maxsize=8)\ndef f(r: Subspace, e: int): pass\n"
        "@functools.lru_cache\ndef g(*, u: 'Subspace'): pass\n"
        "@lru_cache\ndef h(n: int): pass\n"
        "def i(r: Subspace): pass\n"
    )
    assert subspace_keyed_memos(source) == ["f", "g"]


PACKED_FRONT_END = ("_decode_paper", "_projected_coset")


def unpacked_names(source: str, functions=PACKED_FRONT_END) -> list[str]:
    """"function: name" for each use of `MatGF`, `solve_affine` or
    `_unpack_row` inside these top-level functions, sorted."""
    return sorted(
        f"{fn.name}: {n.id}"
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and fn.name in functions
        for n in ast.walk(fn)
        if isinstance(n, ast.Name) and n.id in {"MatGF", "solve_affine", "_unpack_row"}
    )


def test_paper_front_end_stays_packed():
    """`paper` goes from the ball forms to its coset on packed rows: no
    matrix is built, unpacked or solved by `solve_affine` on the way."""
    assert unpacked_names((SRC / "listdec.py").read_text()) == []


def test_unpacked_front_end_is_reported():
    source = (
        "def _decode_paper(code):\n"
        "    m = MatGF.from_rows(code.ctx, [])\n"
        "    return solve_affine(m, [])\n"
        "def _projected_coset(code, forms):\n"
        "    return list(map(_unpack_row, forms))\n"
        "def _entry_at(code, digits):\n"
        "    return MatGF(code.ctx, 1, 1, _unpack_row(digits, 1, 2))\n"
    )
    assert unpacked_names(source) == [
        "_decode_paper: MatGF", "_decode_paper: solve_affine", "_projected_coset: _unpack_row",
    ]
