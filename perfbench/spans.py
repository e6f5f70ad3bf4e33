"""Outside-in tracing: spans around calls into the plueckerdec modules.

The tracer replaces module attributes at their call sites, for example
``plueckerdec.listdec.solve_affine``, with a wrapper that records a span
(name, start, end, parent, op id) and calls the original.  Nothing in
``src/`` changes.  A call site whose attribute no longer exists is listed
as absent instead of failing, so the trace survives renames and deletions
in the program.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module whose namespace is patched, attribute, span name).  The span name
# is "<defining module>.<function>", so one name may have several call sites.
# Private helpers are wrapped only where another module calls them directly.
CALL_SITES: tuple[tuple[str, str, str], ...] = (
    ("plueckerdec.listdec", "decode_list", "listdec.decode_list"),
    ("plueckerdec.listdec", "assemble_system", "listdec.assemble_system"),
    ("plueckerdec.listdec", "build_block_code", "listdec.build_block_code"),
    ("plueckerdec.listdec", "solve_affine", "matgf.solve_affine"),
    ("plueckerdec.listdec", "_rref_rows", "matgf.rref_rows"),
    ("plueckerdec.listdec", "rank", "matgf.rank"),
    ("plueckerdec.listdec", "rref", "matgf.rref"),
    ("plueckerdec.listdec", "kernel_basis", "matgf.kernel_basis"),
    ("plueckerdec.listdec", "ball_equations", "pluecker.ball_equations"),
    ("plueckerdec.listdec", "shuffle_relations", "pluecker.shuffle_relations"),
    ("plueckerdec.listdec", "embed", "pluecker.embed"),
    ("plueckerdec.listdec", "encode", "gabidulin.encode"),
    ("plueckerdec.listdec", "lift", "gabidulin.lift"),
    ("plueckerdec.listdec", "message_of", "gabidulin.message_of"),
    ("plueckerdec.listdec", "subspace_distance", "gabidulin.subspace_distance"),
    ("plueckerdec.listdec", "phi_inv", "gf.phi_inv"),
    ("plueckerdec.gabidulin", "encode", "gabidulin.encode"),
    ("plueckerdec.gabidulin", "lift", "gabidulin.lift"),
    ("plueckerdec.gabidulin", "rank", "matgf.rank"),
    ("plueckerdec.gabidulin", "rref", "matgf.rref"),
    ("plueckerdec.gabidulin", "vstack", "matgf.vstack"),
    ("plueckerdec.gabidulin", "phi", "gf.phi"),
    ("plueckerdec.gabidulin", "frobenius", "gf.frobenius"),
    ("plueckerdec.gabidulin", "lin_independent_over_base", "gf.lin_independent_over_base"),
    ("plueckerdec.gabidulin", "ext_field", "gf.ext_field"),
    ("plueckerdec.pluecker", "rref", "matgf.rref"),
    ("plueckerdec.channel", "corrupt", "channel.corrupt"),
    ("plueckerdec.channel", "encode", "gabidulin.encode"),
    ("plueckerdec.channel", "lift", "gabidulin.lift"),
    ("plueckerdec.channel", "subspace_distance", "gabidulin.subspace_distance"),
    ("plueckerdec.cli", "make_code", "gabidulin.make_code"),
    ("plueckerdec.cli", "mat_from_text", "matgf.mat_from_text"),
    ("plueckerdec.cli", "system_report", "listdec.system_report"),
    ("plueckerdec.cli", "decode_list", "listdec.decode_list"),
)

LAYERS = ("gf", "matgf", "gabidulin", "pluecker", "listdec", "channel", "cli")

# op id of spans that belong to no timed op, such as reference decodes
NO_OP = -1


class Tracer:
    """Span recorder.  Each span is [name, start_ns, end_ns, parent, op]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = NO_OP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def install(self) -> list[str]:
        """Wrap every call site; return those absent from the program."""
        absent, found = [], []
        for mod_name, attr, span in CALL_SITES:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                absent.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                absent.append(f"{mod_name}.{attr}")
                continue
            found.append((mod, attr, span, fn))
        # originals are collected first, so no wrapper ever wraps a wrapper
        for mod, attr, span, fn in found:
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span, fn))
        return absent

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in another process under the open span.

        perf_counter reads CLOCK_MONOTONIC on Linux, so the times of a
        child process nest inside the parent's span.
        """
        parent = self._stack[-1]
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append(
                [name, start, end, parent if par < 0 else par + base, self.op]
            )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list[list]) -> dict:
    """Calls and self time per span name, over spans of timed ops only.

    Self time is a span's duration minus the durations of its children;
    children never overlap because one thread records them in call order.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for idx, (name, start, end, parent, op) in enumerate(spans):
        if op == NO_OP:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[idx])
    return {"calls": calls, "self_ns": self_ns}


def has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
