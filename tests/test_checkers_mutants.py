"""Pinned mutants: every REP rule and every runtime checker hook must
catch a real-code bug the rest of the suite misses.

Each case is one row of the mutation audits in docs/STATIC_ANALYSIS.md:
a minimal edit to a real source file that introduces the checker's bug
class at a site where the discipline is live, and that the rest of the
tier-1 suite passes with.  A lint case applies the edit in memory, lints
the mutated file with the one driver and asserts the rule fires there
and not on the file as shipped.  A runtime case executes the mutated
file as a temporary module, arms the hook and asserts its finding.
Disabling the rule or the hook fails its case.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.checkers.linter import RULES, lint_source

SRC = Path(__file__).resolve().parents[1] / "src"

HALO_SEND_LOOP = (
    "        for direction in directions:\n"
    "            nbr = self.nbr[direction]\n"
    "            if nbr == PROC_NULL:\n"
    "                continue\n"
    "            # the message I send"
)

MUTANTS = [
    pytest.param(
        "REP001", "repro/mhd/state.py",
        [("            np.multiply(y, a, out=scratch)\n            x += scratch\n",
          "            x += a * y\n")],
        id="M01a-iadd_scaled-loop-temporary",
    ),
    pytest.param(
        "REP001", "repro/mhd/state.py",
        [("            if scratch is None:\n"
          "                scratch = np.empty_like(o)  # repro: noqa-REP001 — hoisted, reused\n",
          "            scratch = np.empty_like(o)\n")],
        id="M01b-rk4_combine_into-unhoisted-scratch",
    ),
    pytest.param(
        "REP013", "repro/parallel/overset_comm.py",
        [("        for r, (lith, liph) in donor.targets.items():\n",
          "        for r in set(donor.targets):\n            lith, liph = donor.targets[r]\n")],
        id="M13a-overset-sends-in-set-order",
    ),
    pytest.param(
        "REP014", "repro/parallel/overset_comm.py",
        [("            acc = corner_vals[k, 0] * w[0]\n"
          "            for cc in range(1, 4):\n"
          "                acc = acc + corner_vals[k, cc] * w[cc]\n"
          "            vals.append(acc)\n",
          "            vals.append((corner_vals[k] * w[:, None, :]).sum(axis=0))\n")],
        id="M14a-overset-combine-as-sum",
    ),
    pytest.param(
        "REP015", "repro/parallel/halo.py",
        [(HALO_SEND_LOOP, HALO_SEND_LOOP.replace(
            "in directions:", "in random.sample(directions, len(directions)):")),
         ("import numpy as np\n", "import random\n\nimport numpy as np\n")],
        id="M15c-halo-sends-in-random-order",
    ),
    pytest.param(
        "REP016", "repro/fd/ckernels/build.py",
        [('COMPILE_ARGS = ["-O3", "-ffp-contract=off", "-fno-trapping-math"]',
          'COMPILE_ARGS = ["-O3", "-fno-trapping-math"]')],
        id="M16a-compile-args-lose-fp-contract-off",
    ),
]


@pytest.mark.parametrize("rule, path, edits", MUTANTS)
def test_rule_catches_real_code_mutant(rule, path, edits):
    file = SRC / path
    source = file.read_text()
    mutated = source
    for old, new in edits:
        assert mutated.count(old) == 1, "the mutated site moved; update the audit row"
        mutated = mutated.replace(old, new)
    assert lint_source(source, str(file), rules=[rule]) == []
    fired = lint_source(mutated, str(file), rules=[rule])
    assert fired, f"{rule} misses the mutant"
    assert {v.rule for v in fired} == {rule}


def test_every_rule_has_a_pinned_mutant():
    pinned = {case.values[0] for case in MUTANTS}
    assert pinned == set(RULES)


# ---- runtime checker hooks ---------------------------------------------------------


def _mutant_module(monkeypatch, path, edits):
    """Execute ``src/<path>`` with ``edits`` applied as a fresh module."""
    file = SRC / path
    source = file.read_text()
    for old, new in edits:
        assert source.count(old) == 1, "the mutated site moved; update the audit row"
        source = source.replace(old, new)
    name = "_mutant_" + path.replace("/", "_").removesuffix(".py")
    module = types.ModuleType(name)
    module.__file__ = str(file)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(source, str(file), "exec"), module.__dict__)
    return module


def _fused_rhs(equations_cls):
    """One fused NumPy RHS evaluation on a small perturbed panel (the
    BufferPool path; the compiled kernels do not use the pool)."""
    from repro.grids.component import ComponentGrid
    from repro.mhd.initial import conduction_state, perturb_state
    from repro.mhd.parameters import MHDParameters

    params = MHDParameters.laptop_demo()
    patch = ComponentGrid.build(6, 12, 20)
    state = perturb_state(conduction_state(patch, params))
    eq = equations_cls(patch, params, (0.0, 0.0, params.omega), backend="fused")
    return eq.rhs(state)


def test_pool_poisoning_catches_read_after_release(monkeypatch):
    """H1a: ``rhs_fused`` releases its derivative cache one block early,
    while the induction terms still read the cache-owned B and j.  No
    buffer is re-taken before those reads, so unpoisoned it computes the
    right numbers; poisoned, the NaN shows."""
    from repro.mhd.equations import PanelEquations

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    mutant = _mutant_module(monkeypatch, "repro/mhd/equations.py", [
        ("            # eq. (5): induction, dA/dt = -E = v x B - eta j.  j is dead\n",
         "            cache.reset()\n"
         "            # eq. (5): induction, dA/dt = -E = v x B - eta j.  j is dead\n"),
        ("            self.pool.give(scratch)\n            cache.reset()\n",
         "            self.pool.give(scratch)\n"),
    ])
    assert np.isfinite(_fused_rhs(PanelEquations).ar).all()
    assert np.isnan(_fused_rhs(mutant.PanelEquations).ar).any()


def test_double_release_catches_scratch_given_twice(monkeypatch):
    """H2a: ``rhs_fused`` gives its scratch buffer back after the last
    use and again in its ``finally``.  The duplicate free-list entry
    sinks below every buffer the next evaluation takes, so results stay
    right until the take order changes and two live buffers alias."""
    from repro.checkers.sanitize import DoubleRelease

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    mutant = _mutant_module(monkeypatch, "repro/mhd/equations.py", [
        ("            da2 -= sc(jp, eta)\n",
         "            da2 -= sc(jp, eta)\n            self.pool.give(scratch)\n"),
    ])
    with pytest.raises(DoubleRelease):
        _fused_rhs(mutant.PanelEquations)


def _sanitized_four_rank_step():
    """One step of the 4-rank (2 panels x 1 x 2) thread-backend dynamo."""
    from repro.core import RunConfig
    from repro.parallel.parallel_solver import run_parallel_dynamo

    run_parallel_dynamo(RunConfig(nr=6, nth=12, nph=36, dt=1e-3), 1, 2, 1)


def test_protocol_recorder_catches_collective_divergence(monkeypatch):
    """H6a: ``create_cart``'s mirror barrier becomes a ``bcast`` on the
    panel root.  Both are one rendezvous on these transports, so the run
    completes with the right numbers; real MPI would not match them."""
    from repro.checkers.sanitize import ProtocolViolation
    from repro.parallel import parallel_solver

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cart = _mutant_module(monkeypatch, "repro/parallel/cart.py", [
        ("    comm.barrier()  # mirror the collective nature of MPI_CART_CREATE\n",
         "    comm.bcast(None) if comm.rank == 0 else comm.barrier()"
         "  # mirror the collective nature of MPI_CART_CREATE\n"),
    ])
    monkeypatch.setattr(parallel_solver, "create_cart", cart.create_cart)
    with pytest.raises(ProtocolViolation, match="collective divergence"):
        _sanitized_four_rank_step()


def test_protocol_recorder_catches_unwaited_request(monkeypatch):
    """H7a: the packed halo strip goes out as an ``Isend`` whose handle
    is dropped.  These transports buffer eagerly, so nothing is lost
    here; on an MPI library the send may never complete."""
    from repro.checkers.sanitize import ProtocolViolation
    from repro.parallel import parallel_solver

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    halo = _mutant_module(monkeypatch, "repro/parallel/halo.py", [
        ("            self.cart.comm.Send(buf, dest=nbr, tag=tag, move=True)\n",
         "            self.cart.comm.Isend(buf, dest=nbr, tag=tag, move=True)\n"),
    ])
    monkeypatch.setattr(parallel_solver, "HaloExchanger", halo.HaloExchanger)
    with pytest.raises(ProtocolViolation, match="unwaited request Isend"):
        _sanitized_four_rank_step()
