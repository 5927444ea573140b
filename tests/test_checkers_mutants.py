"""Pinned mutants: every REP rule must catch a real-code bug the rest of
the suite misses.

Each case is one row of the mutation audit in docs/STATIC_ANALYSIS.md:
a minimal edit to a real source file that introduces the rule's bug
class at a site where the discipline is live, and that the rest of the
tier-1 suite passes with.  The test applies the edit in memory, lints
the mutated file with the one driver and asserts the rule fires there
and not on the file as shipped — so disabling the rule fails it.
"""

from pathlib import Path

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
        [('COMPILE_ARGS = ["-O3", "-ffp-contract=off"]', 'COMPILE_ARGS = ["-O3"]')],
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
