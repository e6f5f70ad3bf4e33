"""Command-line front end; one subcommand per pipeline stage.

Output is deterministic for a given input (text mode never prints
timings), so command output can be diffed and golden-tested.  Domain
errors exit with status 1 and a JSON object {"module", "error"} on
stderr; usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable, Iterable, Sequence

from .errors import DomainError, FieldError, MatrixError
from .gf import ExtElement, ExtFieldCtx, FieldCtx, ext_field, format_element
from .matgf import MatGF, mat_from_text, mat_to_text
from .gabidulin import (
    GabidulinCode,
    Subspace,
    _check_code_size,
    encode,
    generator_matrix,
    lift,
    make_code,
)
from .pluecker import (
    LinearForm,
    QuadraticRelation,
    all_tuples,
    ball_equations,
    ball_forbidden_tuples,
    embed,
    shuffle_relations,
    tau_count,
)
from .listdec import (
    STRATEGIES, _code_table, build_block_code, decode_list, extended_parity, system_report,
)
from .channel import simulate_trials

ELEMENT_GRAMMAR = """\
extension field element grammar:
  element ::= term ('+' term)* | '[' int (',' int)* ']'
  term    ::= int | int '*' power | power | '-' term
  power   ::= 'alpha' | 'alpha' '^' int
The bracket form lists coefficients lowest degree first: alpha+1 is [1,1].
Matrices: entries separated by whitespace, rows by ';' (inline) or newlines
(files/stdin).  Matrix arguments accept inline text, '@path', or '-' (stdin).
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_element(ext: ExtFieldCtx, text: str) -> ExtElement:
    s = text.strip()
    if not s:
        raise FieldError("empty field element")
    if s.startswith("["):
        try:
            data = json.loads(s)
        except json.JSONDecodeError:
            raise FieldError(f"bad coefficient list: {text!r}") from None
        if not isinstance(data, list) or not all(isinstance(x, int) for x in data):
            raise FieldError(f"bad coefficient list: {text!r}")
        return ext.element(data)
    total = ext.zero()
    alpha = ext.alpha()
    s = s.replace(" ", "").replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    for term in s.split("+"):
        if not term:
            raise FieldError(f"bad element syntax: {text!r}")
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "alpha" in term:
            head, _, tail = term.partition("alpha")
            if head and not head.endswith("*"):
                raise FieldError(f"bad element term: {term!r}")
            try:
                c = int(head[:-1]) if head else 1
                i = int(tail[1:]) if tail else (0 if tail else 1)
                if tail and not tail.startswith("^"):
                    raise ValueError
            except ValueError:
                raise FieldError(f"bad element term: {term!r}") from None
        else:
            try:
                c, i = int(term), 0
            except ValueError:
                raise FieldError(f"bad element term: {term!r}") from None
        total = total + ext.from_base(sign * c) * alpha**i
    return total


def parse_matrix_arg(ctx: FieldCtx, value: str) -> MatGF:
    if value == "-":
        return mat_from_text(ctx, sys.stdin.read())
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise MatrixError(f"cannot read {value[1:]!r}: {err.strerror}") from None
        return mat_from_text(ctx, text)
    return mat_from_text(ctx, value)


def split_elements(text: str) -> list[str]:
    """Split a comma-separated element list at the commas outside brackets."""
    return re.split(r",(?![^\[]*\])", text)


def parse_modulus(value: str | None) -> tuple[int, ...] | None:
    if value is None:
        return None
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise FieldError(f"bad modulus coefficient list: {value!r}") from None


def build_code(args: argparse.Namespace) -> GabidulinCode:
    modulus = parse_modulus(getattr(args, "modulus", None))
    g_arg = getattr(args, "g", None)
    if g_arg is None:
        return make_code(args.q, args.n, args.k, args.delta, modulus)
    ext = ext_field(args.q, args.n - args.k, modulus)
    g = tuple(parse_element(ext, part) for part in split_elements(g_arg))
    return make_code(args.q, args.n, args.k, args.delta, modulus, g)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def mat_inline(m: MatGF) -> str:
    return ";".join(" ".join(str(x) for x in m.row_list(i)) for i in range(m.rows))


def var_name(t: Sequence[int], n: int) -> str:
    if n <= 9:
        return "x" + "".join(str(x) for x in t)
    return "x(" + ",".join(str(x) for x in t) + ")"


def format_sum(terms: Iterable[tuple[str, int]], q: int) -> str:
    """'c*name' terms joined by '+', coefficients mod q, zero terms dropped."""
    out = [name if c % q == 1 else f"{c % q}*{name}" for name, c in terms if c % q]
    return "+".join(out) if out else "0"


def format_linear(form: LinearForm, n: int, k: int, q: int) -> str:
    terms = ((var_name(t, n), c) for t, c in zip(all_tuples(n, k), form.coeffs))
    return f"{format_sum(terms, q)} = {form.rhs % q}"


def format_quadratic(rel: QuadraticRelation, n: int, q: int) -> str:
    terms = ((f"{var_name(a, n)}*{var_name(b, n)}", c) for a, b, c in rel.terms)
    return f"{format_sum(terms, q)} = 0"


def message_str(msg: Sequence[ExtElement]) -> str:
    return ",".join(format_element(m) for m in msg)


def emit(
    args: argparse.Namespace, text_lines: Callable[[], list[str]], payload: Callable[[], dict]
) -> int:
    """Print the chosen format, built only when chosen."""
    if args.format == "json":
        print(json.dumps(payload()))
    else:
        for line in text_lines():
            print(line)
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_code(args: argparse.Namespace) -> int:
    code = build_code(args)
    _check_code_size(code)
    G = generator_matrix(code)
    words = [(en.codeword, en.subspace, en.pluecker) for en in _code_table(code)]

    def lines() -> list[str]:
        return [
            f"code: q={code.q} n={code.n} k={code.k} delta={code.delta} "
            f"rho={code.rho} size={code.size}",
            "modulus: " + ",".join(str(c) for c in code.ext.modulus),
            "g: " + message_str(code.g),
            "G: " + "; ".join(" ".join(format_element(x) for x in row) for row in G),
            "codewords:",
            *(
                f"codeword {i}: vector={message_str(cw.vec)} "
                f"matrix=[{mat_inline(cw.mat)}] lifting=[{mat_inline(sub.basis)}] "
                f"pluecker={pv}"
                for i, (cw, sub, pv) in enumerate(words)
            ),
        ]

    def payload() -> dict:
        return {
            "q": code.q,
            "n": code.n,
            "k": code.k,
            "delta": code.delta,
            "rho": code.rho,
            "size": code.size,
            "modulus": list(code.ext.modulus),
            "g": [x.to_list() for x in code.g],
            "generator_matrix": [[x.to_list() for x in row] for row in G],
            "codewords": [
                {
                    "vec": [m.to_list() for m in cw.vec],
                    "mat": cw.mat.to_lists(),
                    "lifting": sub.basis.to_lists(),
                    "pluecker": list(pv.coords),
                }
                for cw, sub, pv in words
            ],
        }

    return emit(args, lines, payload)


def cmd_encode(args: argparse.Namespace) -> int:
    code = build_code(args)
    msg = tuple(parse_element(code.ext, part) for part in split_elements(args.msg))
    cw = encode(code, msg)
    return emit(
        args,
        lambda: [mat_to_text(cw.mat)],
        lambda: {"vec": [m.to_list() for m in cw.vec], "mat": cw.mat.to_lists()},
    )


def cmd_lift(args: argparse.Namespace) -> int:
    ctx = FieldCtx(args.q)
    mat = parse_matrix_arg(ctx, args.matrix)
    sub = lift(mat)
    return emit(args, lambda: [mat_to_text(sub.basis)], lambda: {"basis": sub.basis.to_lists()})


def cmd_embed(args: argparse.Namespace) -> int:
    ctx = FieldCtx(args.q)
    mat = parse_matrix_arg(ctx, args.matrix)
    sub = Subspace.from_matrix(mat)
    pv = embed(sub)
    return emit(
        args, lambda: [str(pv)], lambda: {"n": pv.n, "k": pv.k, "coords": list(pv.coords)}
    )


def cmd_shuffle(args: argparse.Namespace) -> int:
    FieldCtx(args.q)  # validate q even though relations are field-free
    rels = shuffle_relations(args.n, args.k)

    def lines() -> list[str]:
        return [
            f"shuffle relations for n={args.n} k={args.k}: {len(rels)}",
            *(format_quadratic(rel, args.n, args.q) for rel in rels),
        ]

    def payload() -> dict:
        return {
            "n": args.n,
            "k": args.k,
            "count": len(rels),
            "relations": [
                [{"a": list(a), "b": list(b), "coeff": c % args.q} for a, b, c in rel.terms]
                for rel in rels
            ],
        }

    return emit(args, lines, payload)


def cmd_ball(args: argparse.Namespace) -> int:
    ctx = FieldCtx(args.q)
    mat = parse_matrix_arg(ctx, args.received)
    sub = Subspace.from_matrix(mat)
    if args.n is not None and args.n != sub.n:
        raise DomainError(f"--n {args.n} does not match the received matrix ({sub.n} columns)")
    if args.k is not None and args.k != sub.k:
        raise DomainError(f"--k {args.k} does not match the received space dimension {sub.k}")
    forbidden = ball_forbidden_tuples(sub.n, sub.k, args.e)
    forms = ball_equations(sub, args.e)
    tau = tau_count(sub.n, sub.k, args.e)

    def lines() -> list[str]:
        return [
            f"ball: e={args.e} tau={tau}",
            "forbidden tuples: "
            + (" ".join("(" + ",".join(str(x) for x in t) + ")" for t in forbidden) or "none"),
            "equations:",
            *(format_linear(f, sub.n, sub.k, args.q) for f in forms),
        ]

    def payload() -> dict:
        return {
            "e": args.e,
            "tau": tau,
            "forbidden": [list(t) for t in forbidden],
            "equations": [{"coeffs": list(f.coeffs), "rhs": f.rhs} for f in forms],
        }

    return emit(args, lines, payload)


def cmd_blockcode(args: argparse.Namespace) -> int:
    code = build_code(args)
    bc = build_block_code(code)
    forms = extended_parity(bc)

    def lines() -> list[str]:
        return [
            f"block code: length={len(bc.positions)} dim={code.rho}",
            "positions: "
            + " ".join("(" + ",".join(str(x) for x in t) + ")" for t in bc.positions),
            "Gp:",
            mat_to_text(bc.Gp),
            "Hp:",
            mat_to_text(bc.Hp),
            "extended parity forms:",
            *(format_linear(f, code.n, code.k, code.q) for f in forms),
        ]

    def payload() -> dict:
        return {
            "length": len(bc.positions),
            "dim": code.rho,
            "positions": [list(t) for t in bc.positions],
            "Gp": bc.Gp.to_lists(),
            "Hp": bc.Hp.to_lists(),
            "extended_parity": [{"coeffs": list(f.coeffs), "rhs": f.rhs} for f in forms],
        }

    return emit(args, lines, payload)


def cmd_decode(args: argparse.Namespace) -> int:
    code = build_code(args)
    received = Subspace.from_matrix(parse_matrix_arg(code.ext.base, args.received))
    system, _ = system_report(code, received, args.e)
    result = decode_list(code, received, args.e, args.strategy)

    def lines() -> list[str]:
        return [
            f"decode: e={args.e} strategy={args.strategy} received=[{mat_inline(received.basis)}]",
            f"system: vars={system.nvars} linear={len(system.linear)} "
            f"quadratic={len(system.quadratic)}",
            "linear:",
            *(format_linear(f, code.n, code.k, code.q) for f in system.linear),
            "quadratic:",
            *(format_quadratic(rel, code.n, code.q) for rel in system.quadratic),
            f"list size: {len(result.entries)}",
            *(
                f"entry {i}: message={message_str(entry.message)} "
                f"vector={message_str(entry.codeword.vec)} "
                f"matrix=[{mat_inline(entry.codeword.mat)}] "
                f"lifting=[{mat_inline(entry.subspace.basis)}] "
                f"pluecker={entry.pluecker}"
                for i, entry in enumerate(result.entries)
            ),
        ]

    def payload() -> dict:
        return {
            "received": received.basis.to_lists(),
            "e": args.e,
            "strategy": args.strategy,
            "list": [
                {
                    "message": [m.to_list() for m in entry.message],
                    "codeword_matrix": entry.codeword.mat.to_lists(),
                    "lifted_basis": entry.subspace.basis.to_lists(),
                    "pluecker": list(entry.pluecker.coords),
                }
                for entry in result.entries
            ],
            "stats": result.stats,
        }

    return emit(args, lines, payload)


def cmd_simulate(args: argparse.Namespace) -> int:
    code = build_code(args)
    for row in simulate_trials(
        code, args.t, args.trials, args.seed, e=args.e, strategy=args.strategy
    ):
        print(json.dumps(row))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, code_params: bool) -> None:
    p.add_argument("--q", type=int, required=True, help="prime field size")
    if code_params:
        p.add_argument("--n", type=int, required=True, help="ambient dimension")
        p.add_argument("--k", type=int, required=True, help="codeword dimension")
        p.add_argument("--delta", type=int, required=True, help="minimum rank distance")
        p.add_argument("--modulus", help="modulus coefficients, lowest degree first, e.g. 1,1,1")
        p.add_argument("--g", help="generator elements, e.g. alpha,1")
    p.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plueckerdec",
        description="Lifted Gabidulin subspace codes and their list decoder "
        "in Pluecker coordinates.",
        epilog=ELEMENT_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code", help="construct a code and list its codewords")
    _add_common(p, code_params=True)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("encode", help="encode a message")
    _add_common(p, code_params=True)
    p.add_argument("--msg", required=True, help="comma-separated message elements")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("lift", help="lift a codeword matrix to a subspace basis")
    _add_common(p, code_params=False)
    p.add_argument("--matrix", required=True, help="codeword matrix")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("embed", help="Pluecker coordinates of a subspace")
    _add_common(p, code_params=False)
    p.add_argument("--matrix", required=True, help="basis matrix of the subspace")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("shuffle", help="quadratic relations cutting out the Grassmannian")
    _add_common(p, code_params=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("ball", help="linear equations of a ball around a subspace")
    _add_common(p, code_params=False)
    p.add_argument("--n", type=int, help="ambient dimension (checked against the matrix)")
    p.add_argument("--k", type=int, help="subspace dimension (checked against the matrix)")
    p.add_argument("--received", required=True, help="basis matrix of the center")
    p.add_argument("--e", type=int, required=True, help="error radius (ball radius 2e)")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("blockcode", help="block code on the qualifying coordinates")
    _add_common(p, code_params=True)
    p.set_defaults(func=cmd_blockcode)

    p = sub.add_parser("decode", help="list-decode a received subspace")
    _add_common(p, code_params=True)
    p.add_argument("--received", required=True, help="basis matrix of the received space")
    p.add_argument("--e", type=int, required=True, help="error radius (ball radius 2e)")
    p.add_argument("--strategy", choices=STRATEGIES, default="paper")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="seeded corrupt-then-decode trials")
    _add_common(p, code_params=True)
    p.add_argument("--t", type=int, required=True, help="number of basis errors")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--e", type=int, default=None, help="decode radius (default: t)")
    p.add_argument("--strategy", choices=STRATEGIES, default="paper")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as err:
        print(json.dumps({"module": err.module, "error": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
