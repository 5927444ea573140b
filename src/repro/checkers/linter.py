"""The one lint core: rule table, driver, noqa, and REP001.

:data:`RULES` maps each code to its one-line summary and its check; a
check is a function of one :class:`LintUnit` (a parsed file, its
parallel-scope flag and the cross-file call registry).
:func:`lint_paths` is the one driver and :func:`lint_source` its
one-file form: one read and one ``ast.parse`` per file, the registry
built in the same first pass, each selected check run once per file,
the per-line escape hatch (``# repro: noqa-REPxxx``, comma-separable)
applied once, findings deduplicated and sorted once.

A rule is in the table only while it catches a real-code bug the test
suite misses (docs/STATIC_ANALYSIS.md, "Mutation audit"); the rest of
the numbers are retired.  The rules live here (REP001) and in
:mod:`repro.checkers.determinism` (REP013-REP016):

REP001 — *no allocations in hot paths.*
    Inside a function decorated ``@hot_path``: no array-allocating
    calls (``np.zeros`` / ``empty`` / ``copy`` / ``*_like`` / ...,
    ``.copy()``), and no arithmetic operator temporaries created inside
    ``for``/``while`` loops (an augmented assignment or a
    subscript-target assignment whose value contains ``+ - * / **``
    allocates a fresh array every iteration).  Pool-mediated
    allocation (``pool.take``) is allowed — recycling is the point.
    Lexical and intra-procedural: scalar arithmetic in a loop matches
    the temporary pattern, and a temporary outside a loop is not
    reported.
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = ["RULES", "LintUnit", "Violation", "lint_paths", "lint_source", "to_json"]


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


# ---- noqa escape hatch -----------------------------------------------------------

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa-(REP\d{3}(?:\s*,\s*(?:noqa-)?REP\d{3})*)")


def _noqa_lines(source: str) -> dict[int, set[str]]:
    """Line number -> set of rule codes suppressed on that line."""
    out: dict[int, set[str]] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if m:
            codes = {c.strip().removeprefix("noqa-") for c in m.group(1).split(",")}
            out[i] = codes
    return out


# ---- shared AST helpers ----------------------------------------------------------

_NP_NAMES = {"np", "numpy"}
_NP_ALLOC = {
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "copy", "array", "ascontiguousarray", "asfortranarray",
    "concatenate", "stack", "vstack", "hstack", "dstack", "column_stack",
    "tile", "repeat", "outer", "meshgrid", "arange", "linspace",
    "eye", "identity", "fromfunction", "broadcast_arrays",
}
_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow, ast.MatMult)


def _alloc_call_name(call: ast.Call) -> str | None:
    """Name of the allocating call, or None if ``call`` does not allocate."""
    f = call.func
    if isinstance(f, ast.Attribute):
        if isinstance(f.value, ast.Name) and f.value.id in _NP_NAMES and f.attr in _NP_ALLOC:
            return f"np.{f.attr}"
        if f.attr == "copy" and not call.args and not call.keywords:
            return ".copy()"
    return None


def _is_hot(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in fn.decorator_list:
        d = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(d, ast.Name) and d.id == "hot_path":
            return True
        if isinstance(d, ast.Attribute) and d.attr == "hot_path":
            return True
    return False


def _functions(tree: ast.AST):
    """Every function definition in ``tree`` as ``(fn, cls)``: ``cls`` is
    the name of the class whose body holds ``fn`` directly, else None."""
    owner = {
        id(stmt): node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for stmt in node.body
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, owner.get(id(node))


def _arith_binops_outside_slices(value: ast.expr) -> list[ast.BinOp]:
    """Arithmetic BinOps in ``value``, not descending into subscript slices
    (index arithmetic like ``f[i + 1]`` selects, it does not allocate)."""
    found: list[ast.BinOp] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Subscript):
            visit(node.value)
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
            found.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(value)
    return found


def _base_name(node: ast.AST) -> str | None:
    """``x`` of a ``Name`` or the ``.attr`` of an ``Attribute`` (else None)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ---- REP001: hot-path allocations -------------------------------------------------


def _check_rep001(unit: LintUnit) -> list[Violation]:
    tree, path = unit.tree, unit.path
    out: list[Violation] = []
    for fn, _ in _functions(tree):
        if not _is_hot(fn):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = _alloc_call_name(node)
                if name is not None:
                    out.append(Violation(
                        "REP001", path, node.lineno, node.col_offset,
                        f"allocating call {name} in @hot_path function "
                        f"{fn.name!r} (use the buffer pool or out=)",
                    ))
        # loop-carried operator temporaries
        for loop in ast.walk(fn):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for stmt in ast.walk(loop):
                writes_array = isinstance(stmt, ast.AugAssign) or (
                    isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Subscript) for t in stmt.targets)
                )
                if not writes_array:
                    continue
                for binop in _arith_binops_outside_slices(stmt.value):
                    out.append(Violation(
                        "REP001", path, binop.lineno, binop.col_offset,
                        f"operator temporary inside a loop in @hot_path "
                        f"function {fn.name!r} (one allocation per "
                        f"iteration; use np.multiply/add with out=)",
                    ))
    return out


# ---- the one driver ---------------------------------------------------------------


def _parallel_scope(tree: ast.AST, path: str) -> bool:
    """Parallel modules and their direct users (REP014 reduces gathered data there)."""
    if "parallel" in Path(path).parts:
        return True
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro.parallel"
        ):
            return True
        if isinstance(node, ast.Import) and any(
            alias.name.startswith("repro.parallel") for alias in node.names
        ):
            return True
    return False


@dataclass
class LintUnit:
    """One parsed file as every check sees it, plus the cross-file call
    registry built from all files of the run in the same first pass."""

    path: str
    tree: ast.Module
    parallel: bool
    calls: determinism.Registry


def _iter_files(paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(
                f for f in sorted(path.rglob("*.py")) if "__pycache__" not in f.parts
            )
        else:
            files.append(path)
    return files


# the rule family imports the helpers above, so it loads after them
from repro.checkers import determinism  # noqa: E402

#: The rule table: code -> (one-line summary, check of one LintUnit).
RULES: dict[str, tuple[str, Callable[[LintUnit], Iterable[Violation]]]] = {
    "REP001": ("array allocation or loop temporary inside a @hot_path function",
               _check_rep001),
    "REP013": ("iteration over an unordered set/dict feeds comm, FP accumulation, "
               "or a schedule", determinism.check_rep013),
    "REP014": ("unordered floating-point reduction in a @hot_path function or over "
               "gathered per-rank data", determinism.check_rep014),
    "REP015": ("ambient nondeterminism (time/random/hash/id) reachable from a "
               "@hot_path kernel", determinism.check_rep015),
    "REP016": ("FP-contraction or fast-math hazard in the compiled-kernel backend",
               determinism.check_rep016),
}


def _lint(sources: Iterable[tuple[str, str]],
          rules: Sequence[str] | None) -> list[Violation]:
    """Lint ``(source, path)`` pairs: one parse per file, the registry in
    the same first pass, each selected check once per file, noqa applied
    once, deduplicated and sorted once."""
    checks = [check for code, (_, check) in RULES.items()
              if rules is None or code in rules]
    call_reg = determinism.Registry()
    units: list[tuple[LintUnit, dict[int, set[str]]]] = []
    for source, path in sources:
        tree = ast.parse(source, filename=path)
        determinism.collect(tree, path, call_reg)
        unit = LintUnit(path, tree, _parallel_scope(tree, path), call_reg)
        units.append((unit, _noqa_lines(source)))
    # a finding inside a nested function is walked once from each
    # enclosing FunctionDef — identical findings collapse to one
    found: set[Violation] = set()
    for unit, noqa in units:
        for check in checks:
            found.update(
                v for v in check(unit) if v.rule not in noqa.get(v.line, ())
            )
    return sorted(found, key=lambda v: (v.path, v.line, v.col, v.rule, v.message))


def lint_source(
    source: str, path: str = "<string>", rules: Sequence[str] | None = None
) -> list[Violation]:
    """Lint one module's source (the one-file form of :func:`lint_paths`)."""
    return _lint([(source, path)], rules)


def lint_paths(
    paths: Sequence[str], rules: Sequence[str] | None = None
) -> tuple[list[Violation], int]:
    """Lint files/directories; returns ``(violations, number of files)``.

    ``rules`` defaults to every code in :data:`RULES`.
    """
    files = _iter_files(paths)
    return _lint(((f.read_text(), str(f)) for f in files), rules), len(files)


def to_json(violations: Sequence[Violation], n_files: int) -> str:
    return json.dumps(
        {
            "violations": [v.as_dict() for v in violations],
            "count": len(violations),
            "files": n_files,
        },
        indent=2,
    )
