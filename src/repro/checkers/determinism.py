"""Bitwise-determinism lint: rules REP013-REP016.

The invariant behind every capability this reproduction ships — the
process/socket backends, elastic restart, the compiled C kernels, the
blocking exchange — is that the parallel result is *bitwise*
identical to serial, the same property the Earth Simulator runs relied
on for their validated TFlops numbers.  The hazards that silently break
it are exactly four:

REP013 — *nondeterministic iteration order feeding numerics or comm.*
    A ``for`` loop over a ``set`` (or a dict provably built from an
    unordered source) whose body sends messages, accumulates
    floating-point values, or appends to a schedule makes the message
    order / reduction order / schedule depend on hash-iteration order.
    ``sorted(...)`` and plain dicts (insertion-ordered since 3.7) are
    exempt; integer counters (``n += 1``) are order-free and exempt.

REP014 — *unordered floating-point reduction.*
    Inside a ``@hot_path`` function, ``np.sum``/``np.dot``/``sum()``
    and friends reduce in an implementation-defined (pairwise)
    association that need not match the serial/tiled association.  The
    same applies to reducing per-rank gathered data anywhere in a
    parallel module — the blessed pattern is the explicit rank-order
    left fold of :meth:`repro.parallel.simmpi.Communicator.
    allreduce` (``acc = parts[0]; for p in parts[1:]: acc = op(acc,
    p)``), which this rule deliberately does not match.

REP015 — *ambient nondeterminism in numerics paths.*
    ``time.*``, the module-global ``random``/``np.random`` state (an
    explicitly *seeded* ``np.random.default_rng(seed)`` is fine),
    ``hash()``, ``os.urandom`` and ``id()``-keyed mappings, in any
    function reachable from a ``@hot_path`` kernel through the
    cross-file call registry this module builds (calls resolved by
    name).

REP016 — *FP-contraction and fast-math hazards in the C backend.*
    The compiled kernels mirror NumPy ufunc sequences rounding for
    rounding, so their build flags must pin ``-ffp-contract=off`` and
    must not enable value-changing math (``-ffast-math``, ``-Ofast``,
    ``-funsafe-math-optimizations``); the C *source* must not reenable
    contraction (``#pragma STDC FP_CONTRACT ON``), call ``fma()``, use
    OpenMP reductions, or split a loop-carried floating accumulation
    into multiple accumulators recombined after the loop (the classic
    re-association "optimization" — a source-level check, not just the
    flag).

Each check takes the driver's :class:`~repro.checkers.linter.LintUnit`;
:func:`collect` builds the cross-file call registry REP015 reads in the
driver's first pass.  The rule table and the driver live in
:mod:`repro.checkers.linter`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.checkers.linter import (
    _NP_NAMES,
    LintUnit,
    Violation,
    _base_name,
    _functions,
    _is_hot,
)

__all__ = ["Registry", "check_rep013", "check_rep014", "check_rep015",
           "check_rep016", "collect"]


# ---- REP013: unordered iteration feeding order-sensitive work ---------------------

_SET_CALLS = {"set", "frozenset"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_COMM_CALLS = {
    "Send", "Isend", "Recv", "Irecv", "Sendrecv",
    "barrier", "bcast", "gather", "allgather", "allreduce", "alltoall",
    "split", "dup",
    "Barrier", "Bcast", "Gather", "Allgather", "Allreduce", "Alltoall",
    "Reduce", "Scatter",
}
#: calls that materialize an iterable without imposing an order
_ORDER_PRESERVING_WRAPPERS = {"list", "tuple", "iter", "reversed", "enumerate"}


def _unordered_names(fn: ast.AST) -> tuple[set[str], set[str]]:
    """Names bound to unordered sets / dicts-built-from-unordered in ``fn``.

    One forward dataflow pass: a name assigned from a set expression is
    unordered; a dict comprehension iterating an unordered source
    yields an unordered *dict* (its insertion order is the hash order
    of the source).  Re-binding from an ordered expression clears the
    mark — last assignment wins, which over-approximates loops but only
    toward fewer findings.
    """
    unordered: set[str] = set()
    unordered_dicts: set[str] = set()

    def is_unordered(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in unordered
        if isinstance(expr, ast.Call):
            f = expr.func
            if isinstance(f, ast.Name) and f.id in _SET_CALLS:
                return True
            if isinstance(f, ast.Name) and f.id in _ORDER_PRESERVING_WRAPPERS:
                return bool(expr.args) and is_unordered(expr.args[0])
            if isinstance(f, ast.Attribute) and f.attr in _SET_METHODS:
                return is_unordered(f.value) or any(
                    is_unordered(a) for a in expr.args
                )
            return False
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
            return is_unordered(expr.left) or is_unordered(expr.right)
        return False

    def dict_from_unordered(expr: ast.expr) -> bool:
        if isinstance(expr, ast.DictComp):
            return any(is_unordered(g.iter) for g in expr.generators)
        if isinstance(expr, ast.Call):
            f = expr.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "fromkeys"
                and expr.args
            ):
                return is_unordered(expr.args[0])
            if isinstance(f, ast.Name) and f.id == "dict" and expr.args:
                return is_unordered(expr.args[0]) or dict_from_unordered(
                    expr.args[0]
                )
        return False

    for stmt in ast.walk(fn):
        if not isinstance(stmt, ast.Assign):
            continue
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        if not names:
            continue
        if is_unordered(stmt.value):
            unordered.update(names)
            unordered_dicts.difference_update(names)
        elif dict_from_unordered(stmt.value):
            unordered_dicts.update(names)
            unordered.difference_update(names)
        else:
            unordered.difference_update(names)
            unordered_dicts.difference_update(names)
    return unordered, unordered_dicts


def _iter_is_unordered(
    it: ast.expr, unordered: set[str], unordered_dicts: set[str]
) -> str | None:
    """Why a ``for`` iterable is hash-ordered, or None if it is not."""
    if isinstance(it, (ast.Set, ast.SetComp)):
        return "a set expression"
    if isinstance(it, ast.Name):
        if it.id in unordered:
            return f"set {it.id!r}"
        if it.id in unordered_dicts:
            return f"dict {it.id!r} built from an unordered source"
        return None
    if isinstance(it, ast.Call):
        f = it.func
        if isinstance(f, ast.Name) and f.id in _SET_CALLS:
            return f"{f.id}(...)"
        if isinstance(f, ast.Name) and f.id in _ORDER_PRESERVING_WRAPPERS:
            return (
                _iter_is_unordered(it.args[0], unordered, unordered_dicts)
                if it.args else None
            )
        if isinstance(f, ast.Attribute) and f.attr in ("items", "keys", "values"):
            base = f.value
            if isinstance(base, ast.Name) and base.id in unordered_dicts:
                return f"dict {base.id!r} built from an unordered source"
        if isinstance(f, ast.Attribute) and f.attr in _SET_METHODS:
            return f".{f.attr}(...)"
        return None
    if isinstance(it, ast.BinOp) and isinstance(it.op, _SET_OPS):
        left = _iter_is_unordered(it.left, unordered, unordered_dicts)
        right = _iter_is_unordered(it.right, unordered, unordered_dicts)
        return left or right
    return None


def _loop_body_hazard(loop: ast.For) -> tuple[int, int, str] | None:
    """The first order-sensitive operation in a loop body, if any."""
    for node in ast.walk(loop):
        if node is loop:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _COMM_CALLS:
                return (node.lineno, node.col_offset,
                        f"posts {node.func.attr!r} messages")
            if node.func.attr in ("append", "extend", "insert"):
                return (node.lineno, node.col_offset,
                        f"builds a schedule via .{node.func.attr}()")
        if isinstance(node, ast.AugAssign) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            # integer counters (n += 1) are association-free
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, int
            ):
                continue
            return (node.lineno, node.col_offset, "accumulates in place")
    return None


def check_rep013(unit: LintUnit) -> list[Violation]:
    tree, path = unit.tree, unit.path
    out: list[Violation] = []
    scopes: list[ast.AST] = [tree, *(fn for fn, _ in _functions(tree))]
    for scope in scopes:
        unordered, unordered_dicts = _unordered_names(scope)
        in_functions = (
            {id(n) for fn, _ in _functions(tree) for n in ast.walk(fn)}
            if scope is tree else set()
        )
        for loop in (n for n in ast.walk(scope) if isinstance(n, ast.For)):
            if scope is tree and id(loop) in in_functions:
                continue  # function bodies get their own (scoped) pass
            why = _iter_is_unordered(loop.iter, unordered, unordered_dicts)
            if why is None:
                continue
            hazard = _loop_body_hazard(loop)
            if hazard is None:
                continue
            _line, _col, what = hazard
            out.append(Violation(
                "REP013", path, loop.lineno, loop.col_offset,
                f"loop over {why} {what} — hash-iteration order leaks into "
                f"the result; iterate sorted(...) or an insertion-ordered "
                f"dict",
            ))
    return out


# ---- REP014: unordered floating-point reductions ----------------------------------

_REDUCE_FUNCS = {
    "sum", "dot", "einsum", "matmul", "vdot", "inner", "prod",
    "nansum", "cumsum", "trace",
}
_GATHER_CALLS = {"gather", "allgather"}


def _reduction_call(node: ast.Call) -> str | None:
    """Name of an unordered-reduction call, or None."""
    f = node.func
    if isinstance(f, ast.Name) and f.id == "sum":
        return "sum"
    if isinstance(f, ast.Attribute) and f.attr in _REDUCE_FUNCS:
        if isinstance(f.value, ast.Name) and f.value.id in _NP_NAMES:
            return f"np.{f.attr}"
        if f.attr in ("sum", "dot"):  # array-method form
            return f".{f.attr}()"
    return None


def check_rep014(unit: LintUnit) -> list[Violation]:
    tree, path, parallel = unit.tree, unit.path, unit.parallel
    out: list[Violation] = []
    for fn, _ in _functions(tree):
        hot = _is_hot(fn)
        gathered: set[str] = set()
        if parallel:
            for stmt in ast.walk(fn):
                if (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr in _GATHER_CALLS
                ):
                    gathered.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
        if not hot and not gathered:
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = _reduction_call(node)
            if name is None:
                continue
            if hot:
                out.append(Violation(
                    "REP014", path, node.lineno, node.col_offset,
                    f"{name} in @hot_path function {fn.name!r} reduces in "
                    f"an implementation-defined (pairwise) association "
                    f"that serial/tiled runs need not share; accumulate "
                    f"with an explicit left fold",
                ))
                continue
            over_gathered = any(
                isinstance(sub, ast.Name) and sub.id in gathered
                for a in node.args for sub in ast.walk(a)
            ) or any(
                isinstance(a, ast.Call)
                and isinstance(a.func, ast.Attribute)
                and a.func.attr in _GATHER_CALLS
                for a in node.args
            )
            if over_gathered:
                out.append(Violation(
                    "REP014", path, node.lineno, node.col_offset,
                    f"{name} over gathered per-rank data — reduce in rank "
                    f"order with the left fold idiom of "
                    f"Communicator.allreduce instead",
                ))
    return out


# ---- REP015: ambient nondeterminism reachable from hot paths ----------------------

#: hazard kind -> human-readable description
_AMBIENT_KINDS = {
    "time": "reads the wall clock",
    "random": "draws from the module-global RNG",
    "np.random": "draws from the module-global NumPy RNG",
    "hash": "depends on PYTHONHASHSEED via hash()",
    "urandom": "reads OS entropy",
    "id-key": "keys a mapping on id() — addresses vary run to run",
}


@dataclass
class _FnInfo:
    """One function's determinism-relevant summary."""

    qualname: str
    path: str
    hot: bool
    calls: set[str] = field(default_factory=set)
    #: (line, col, kind, detail) ambient-nondeterminism sites
    hazards: list[tuple[int, int, str, str]] = field(default_factory=list)


class Registry:
    """Cross-file registry: function name -> summaries."""

    def __init__(self) -> None:
        self.functions: dict[str, list[_FnInfo]] = {}
        self._reachable: dict[int, str] | None = None

    def add(self, info: _FnInfo) -> None:
        self.functions.setdefault(info.qualname.split(".")[-1], []).append(info)
        self._reachable = None

    def reachable_from_hot(self) -> dict[int, str]:
        """``id(info) -> hot root qualname`` for every reachable summary."""
        if self._reachable is not None:
            return self._reachable
        reach: dict[int, str] = {}
        stack: list[tuple[_FnInfo, str]] = [
            (info, info.qualname)
            for infos in self.functions.values()
            for info in infos
            if info.hot
        ]
        while stack:
            info, root = stack.pop()
            if id(info) in reach:
                continue
            reach[id(info)] = root
            for name in info.calls:
                for callee in self.functions.get(name, ()):
                    if id(callee) not in reach:
                        stack.append((callee, root))
        self._reachable = reach
        return reach


def _ambient_hazards(fn: ast.AST) -> list[tuple[int, int, str, str]]:
    out: list[tuple[int, int, str, str]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                mod = f.value.id
                if mod in ("time", "_time"):
                    out.append((node.lineno, node.col_offset, "time",
                                f"time.{f.attr}()"))
                elif mod == "random":
                    out.append((node.lineno, node.col_offset, "random",
                                f"random.{f.attr}()"))
                elif mod == "os" and f.attr == "urandom":
                    out.append((node.lineno, node.col_offset, "urandom",
                                "os.urandom()"))
            if (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Attribute)
                and f.value.attr == "random"
                and isinstance(f.value.value, ast.Name)
                and f.value.value.id in _NP_NAMES
            ):
                seeded = f.attr == "default_rng" and (node.args or node.keywords)
                if not seeded:
                    out.append((node.lineno, node.col_offset, "np.random",
                                f"np.random.{f.attr}()"))
            if isinstance(f, ast.Name) and f.id == "hash":
                out.append((node.lineno, node.col_offset, "hash", "hash()"))
        # id()-keyed mappings: d[id(x)], d.get(id(x)), key = id(x)
        if isinstance(node, ast.Subscript) and _is_id_call(node.slice):
            out.append((node.lineno, node.col_offset, "id-key",
                        "mapping subscript id(...)"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "setdefault", "pop")
            and node.args
            and _is_id_call(node.args[0])
        ):
            out.append((node.lineno, node.col_offset, "id-key",
                        f".{node.func.attr}(id(...))"))
    return out


def _is_id_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def collect(tree: ast.AST, path: str, registry: Registry) -> None:
    """Summarize every function for the cross-file REP015 pass."""
    for fn, cls in _functions(tree):
        qual = f"{cls}.{fn.name}" if cls else fn.name
        info = _FnInfo(qualname=qual, path=path, hot=_is_hot(fn))
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, ast.Call):
                name = _base_name(node.func)
                if name is not None:
                    info.calls.add(name)
        info.hazards = _ambient_hazards(fn)
        registry.add(info)


def check_rep015(unit: LintUnit) -> list[Violation]:
    path, registry = unit.path, unit.calls
    out: list[Violation] = []
    reach = registry.reachable_from_hot()
    for infos in registry.functions.values():
        for info in infos:
            if info.path != path or id(info) not in reach:
                continue
            root = reach[id(info)]
            via = (
                "a @hot_path kernel"
                if info.hot
                else f"@hot_path {root!r} (cross-file call registry)"
            )
            for line, col, kind, detail in info.hazards:
                out.append(Violation(
                    "REP015", path, line, col,
                    f"{detail} {_AMBIENT_KINDS[kind]} in {info.qualname!r}, "
                    f"reachable from {via} — numerics must be a pure "
                    f"function of the state and the seed",
                ))
    return out


# ---- REP016: FP-contraction / fast-math hazards in the C backend ------------------

_BAD_FLAGS = {
    "-ffast-math", "-Ofast", "-funsafe-math-optimizations",
    "-fassociative-math", "-freciprocal-math", "-ffp-contract=fast",
}
_OPT_FLAG_RE = re.compile(r"^-O[123s]?$")
_C_DECL_RE = r"(?:double|float)\s+(?:[\w*\s,=\[\]\.]+?,\s*)?{name}\s*[=;,\[]"
_ACCUM_RE = re.compile(r"(\w+)\s*\+=")


def _string_constants(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node


def _compile_arg_lists(tree: ast.AST):
    """Assignments binding a list/tuple of compiler-flag strings."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            continue
        elts = node.value.elts
        flags = [
            e.value for e in elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        ]
        if flags and len(flags) == len(elts) and any(
            f.startswith("-") for f in flags
        ):
            yield node, flags


def _c_loop_bodies(text: str):
    """(loop_start_offset, body_start, body_end) of braced C for-loops."""
    for m in re.finditer(r"\bfor\s*\(", text):
        # find the brace that opens the body (skip the header parens)
        depth, i = 1, m.end()
        while i < len(text) and depth:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        while i < len(text) and text[i] in " \t\r\n":
            i += 1
        if i >= len(text) or text[i] != "{":
            continue  # single-statement body: no room for split accumulators
        depth, j = 1, i + 1
        while j < len(text) and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        yield m.start(), i + 1, j


def _reassociated_accumulators(text: str) -> list[int]:
    """Offsets of loops whose FP accumulation is split across
    accumulators recombined after the loop (re-association)."""
    hits: list[int] = []
    for loop_start, body_start, body_end in _c_loop_bodies(text):
        body = text[body_start:body_end]
        carried: list[str] = []
        for name in sorted({m.group(1) for m in _ACCUM_RE.finditer(body)}):
            decl = re.compile(_C_DECL_RE.format(name=re.escape(name)))
            decls = [m.start() for m in decl.finditer(text)]
            if not decls:
                continue  # parameter or untyped — not provably FP
            if any(body_start <= d < body_end for d in decls):
                continue  # per-iteration local, reset every pass
            if any(d < loop_start for d in decls):
                carried.append(name)
        if len(carried) < 2:
            continue
        after = text[body_end:body_end + 2000]
        for a in carried:
            for b in carried:
                if a != b and re.search(
                    rf"\b{re.escape(a)}\b\s*[+*]\s*{re.escape(b)}\b", after
                ):
                    hits.append(loop_start)
                    break
            else:
                continue
            break
    return hits


def check_rep016(unit: LintUnit) -> list[Violation]:
    tree, path = unit.tree, unit.path
    out: list[Violation] = []
    for node, flags in _compile_arg_lists(tree):
        for f in flags:
            if f in _BAD_FLAGS:
                out.append(Violation(
                    "REP016", path, node.lineno, node.col_offset,
                    f"compile flag {f!r} licenses value-changing FP "
                    f"transformations — the C kernels must round exactly "
                    f"like the NumPy sequence they mirror",
                ))
        if any(_OPT_FLAG_RE.match(f) for f in flags) and \
                "-ffp-contract=off" not in flags:
            out.append(Violation(
                "REP016", path, node.lineno, node.col_offset,
                "optimized build without -ffp-contract=off — the compiler "
                "may contract a*b+c into fma, skipping the intermediate "
                "rounding the NumPy reference performs",
            ))
    for const in _string_constants(tree):
        text = const.value
        # only scan constants that look like C source (docstrings and
        # diagnostic messages mention these patterns by name)
        if "#include" not in text and not ("for (" in text and ";" in text):
            continue
        lines = text.splitlines()
        line_starts: list[int] = []
        off = 0
        for ln in lines:
            line_starts.append(off)
            off += len(ln) + 1

        def abs_line(offset: int) -> int:
            lo = 0
            for i, s in enumerate(line_starts):
                if s <= offset:
                    lo = i
            return const.lineno + lo

        for i, ln in enumerate(lines):
            if "FP_CONTRACT" in ln and "ON" in ln:
                out.append(Violation(
                    "REP016", path, const.lineno + i, 0,
                    "#pragma STDC FP_CONTRACT ON re-enables the fused "
                    "multiply-add the build flags disabled",
                ))
            if re.search(r"\b(?:__builtin_)?fmaf?\s*\(", ln):
                out.append(Violation(
                    "REP016", path, const.lineno + i, 0,
                    "explicit fma() skips the intermediate rounding of the "
                    "mirrored NumPy multiply-then-add",
                ))
            if "#pragma omp" in ln and "reduction" in ln:
                out.append(Violation(
                    "REP016", path, const.lineno + i, 0,
                    "OpenMP reduction clauses combine partials in thread "
                    "order — unordered across runs",
                ))
        for offset in _reassociated_accumulators(text):
            out.append(Violation(
                "REP016", path, abs_line(offset), 0,
                "loop-carried FP accumulation split across multiple "
                "accumulators recombined after the loop — re-association "
                "changes the rounding sequence",
            ))
    return out
