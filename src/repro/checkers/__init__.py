"""Machine-checked invariants for the paper's hand-enforced discipline.

The 46%-of-peak number in the source paper rests on rules the original
authors enforced by hand: allocation-free inner kernels (List 1's
vectorized stencils) and an exactly matched halo/overset message
protocol.  This package makes those rules checkable:

:mod:`repro.checkers.hotpath`
    The ``@hot_path`` marker decorating allocation-free kernels.
:mod:`repro.checkers.linter`
    The one lint core (``repro-paper lint``): the ``RULES`` table
    (code -> summary, check), the single driver ``lint_paths`` /
    ``lint_source`` (one parse per file, the cross-file call registry
    in the same first pass, noqa applied once) and the hot-path
    allocation rule REP001.
:mod:`repro.checkers.sanitize`
    Runtime sanitizers behind ``REPRO_SANITIZE=1`` — NaN-poisoned
    buffer releases, double-release detection, and the protocol
    recorder (collective-sequence divergence, unwaited non-blocking
    requests); each hook earned its place in a mutation audit.
:mod:`repro.checkers.hb`
    The wait-for graph every backend's blocking ops register with, so
    timeouts diagnose the per-rank cycle (``DeadlockError``).
:mod:`repro.checkers.determinism`
    The bitwise-determinism rules REP013-REP016 — nondeterministic
    iteration order feeding numerics or comm, unordered floating-point
    reductions, ambient nondeterminism reachable from ``@hot_path``
    kernels, and FP-contraction / fast-math hazards in the compiled C
    backend's sources and compile flags.
:mod:`repro.checkers.fingerprint`
    Merkle-style SHA-256 state digests (field → panel → root) behind
    the repo's bitwise serial-equals-parallel invariant: per-step
    :class:`~repro.checkers.fingerprint.Fingerprint` timelines,
    :func:`~repro.checkers.fingerprint.first_divergence` localization
    to (step, panel, field), and the shared test assertion
    :func:`~repro.checkers.fingerprint.assert_bitwise_equal`.  Drives
    ``repro-paper verify-bitwise``.
"""

# the lint core first: the determinism rules import its helpers, and
# its rule table imports them
from repro.checkers.linter import RULES, Violation, lint_paths, lint_source

from repro.checkers.fingerprint import (
    Divergence,
    Fingerprint,
    assert_bitwise_equal,
    field_digest,
    fingerprint_state,
    first_divergence,
    state_digests,
    states_root_digest,
)
from repro.checkers.hb import PendingOp, WaitForGraph
from repro.checkers.hotpath import hot_path
from repro.checkers.sanitize import (
    DoubleRelease,
    ProtocolReport,
    ProtocolViolation,
    SanitizerError,
    last_protocol_report,
    sanitize_enabled,
)

__all__ = [
    "RULES",
    "Divergence",
    "DoubleRelease",
    "Fingerprint",
    "PendingOp",
    "ProtocolReport",
    "ProtocolViolation",
    "SanitizerError",
    "Violation",
    "WaitForGraph",
    "assert_bitwise_equal",
    "field_digest",
    "fingerprint_state",
    "first_divergence",
    "hot_path",
    "last_protocol_report",
    "lint_paths",
    "lint_source",
    "state_digests",
    "states_root_digest",
    "sanitize_enabled",
]
