"""Bitwise-determinism layer: REP013-REP016 + the fingerprint harness.

Static side: the four determinism rules fire on minimal hazardous
fixtures and stay quiet on the blessed patterns (sorted iteration,
integer counters, seeded generators, per-iteration C accumulators,
``-ffp-contract=off``).  Dynamic side: state fingerprints are stable
across identical runs, localize an induced perturbation to the exact
(step, panel, field), ride along in checkpoints, and back the shared
``assert_bitwise_equal`` test assertion.  The whole-tree self-lint
lives in ``test_checkers_lint.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers.linter import RULES, lint_paths, lint_source
from repro.checkers.fingerprint import (
    Fingerprint,
    assert_bitwise_equal,
    field_digest,
    fingerprint_state,
    first_divergence,
    state_digests,
    states_root_digest,
)
from repro.grids.component import Panel
from repro.mhd.state import FIELD_NAMES, MHDState


#: the rules these fixtures exercise
DET = ["REP013", "REP014", "REP015", "REP016"]


def lint_det(source, path="<string>"):
    return lint_source(source, path, rules=DET)


def rules_of(violations):
    return [v.rule for v in violations]


class TestRegistry:
    def test_rule_ids(self):
        assert set(DET) <= set(RULES)

    def test_all_rules_spans_every_family(self):
        # every other number is retired (docs/STATIC_ANALYSIS.md,
        # "Mutation audit") and not reused
        assert set(RULES) == {"REP001", *DET}


# ---------------------------------------------------------------------------
# REP013: nondeterministic iteration order feeding numerics or comm
# ---------------------------------------------------------------------------


class TestRep013:
    SET_SEND = (
        "def schedule(comm, payload, ranks):\n"
        "    targets = set(ranks)\n"
        "    for r in targets:\n"
        "        comm.Send(payload, dest=r, tag=7)\n"
    )

    SET_APPEND = (
        "def plan(items):\n"
        "    pending = set(items)\n"
        "    out = []\n"
        "    for x in pending:\n"
        "        out.append(x)\n"
        "    return out\n"
    )

    SET_FP_ACCUM = (
        "def total_energy(weights):\n"
        "    ws = set(weights)\n"
        "    total = 0.0\n"
        "    for w in ws:\n"
        "        total += w\n"
        "    return total\n"
    )

    DICT_FROM_SET = (
        "def sizes(items):\n"
        "    lookup = {k: len(k) for k in set(items)}\n"
        "    total = 0.0\n"
        "    for k, v in lookup.items():\n"
        "        total += v\n"
        "    return total\n"
    )

    SORTED_OK = (
        "def plan(items):\n"
        "    out = []\n"
        "    for x in sorted(set(items)):\n"
        "        out.append(x)\n"
        "    return out\n"
    )

    COUNTER_OK = (
        "def count(items):\n"
        "    n = 0\n"
        "    for x in set(items):\n"
        "        n += 1\n"
        "    return n\n"
    )

    def test_set_iteration_sending_messages(self):
        assert "REP013" in rules_of(lint_det(self.SET_SEND))

    def test_set_iteration_building_a_schedule(self):
        assert "REP013" in rules_of(lint_det(self.SET_APPEND))

    def test_set_iteration_accumulating_floats(self):
        assert "REP013" in rules_of(lint_det(self.SET_FP_ACCUM))

    def test_unordered_dict_items_iteration(self):
        assert "REP013" in rules_of(lint_det(self.DICT_FROM_SET))

    def test_sorted_wrapper_is_blessed(self):
        assert lint_det(self.SORTED_OK) == []

    def test_integer_counter_is_not_an_fp_accumulation(self):
        assert lint_det(self.COUNTER_OK) == []

    def test_noqa_on_the_loop_line(self):
        src = self.SET_APPEND.replace(
            "    for x in pending:",
            "    for x in pending:  # repro: noqa-REP013",
        )
        assert lint_det(src) == []


# ---------------------------------------------------------------------------
# REP014: unordered floating-point reductions
# ---------------------------------------------------------------------------


class TestRep014:
    HOT_SUM = (
        "import numpy as np\n"
        "from repro.checkers.hotpath import hot_path\n"
        "@hot_path\n"
        "def kinetic(f):\n"
        "    return np.sum(f * f)\n"
    )

    COLD_SUM = (
        "import numpy as np\n"
        "def diagnostics(f):\n"
        "    return np.sum(f * f)\n"
    )

    GATHERED_SUM = (
        "import repro.parallel\n"
        "def reduce_energy(comm, local):\n"
        "    parts = comm.allgather(local)\n"
        "    return sum(parts)\n"
    )

    BLESSED_LEFT_FOLD = (
        "import repro.parallel\n"
        "def reduce_energy(comm, local):\n"
        "    parts = comm.allgather(local)\n"
        "    total = parts[0]\n"
        "    for p in parts[1:]:\n"
        "        total = total + p\n"
        "    return total\n"
    )

    def test_reduction_in_hot_function(self):
        violations = lint_det(self.HOT_SUM)
        assert rules_of(violations) == ["REP014"]

    def test_reduction_in_cold_function_is_fine(self):
        assert lint_det(self.COLD_SUM) == []

    def test_builtin_sum_over_gathered_per_rank_data(self):
        assert "REP014" in rules_of(lint_det(self.GATHERED_SUM))

    def test_rank_order_left_fold_is_blessed(self):
        assert lint_det(self.BLESSED_LEFT_FOLD) == []


# ---------------------------------------------------------------------------
# REP015: ambient nondeterminism reachable from hot kernels
# ---------------------------------------------------------------------------


class TestRep015:
    DIRECT = (
        "import time\n"
        "import random\n"
        "import numpy as np\n"
        "from repro.checkers.hotpath import hot_path\n"
        "@hot_path\n"
        "def kernel(f):\n"
        "    t0 = time.perf_counter()\n"
        "    jitter = random.random()\n"
        "    rng = np.random.default_rng()\n"
        "    return f * jitter + t0 + rng.standard_normal()\n"
    )

    SEEDED_OK = (
        "import numpy as np\n"
        "from repro.checkers.hotpath import hot_path\n"
        "@hot_path\n"
        "def kernel(f):\n"
        "    rng = np.random.default_rng(1234)\n"
        "    return f + rng.standard_normal()\n"
    )

    HASH_KEYED = (
        "from repro.checkers.hotpath import hot_path\n"
        "@hot_path\n"
        "def lookup(cache, buf):\n"
        "    return cache[id(buf)]\n"
    )

    def test_direct_ambient_calls_in_hot_function(self):
        violations = lint_det(self.DIRECT)
        assert rules_of(violations) == ["REP015", "REP015", "REP015"]

    def test_seeded_generator_is_blessed(self):
        assert lint_det(self.SEEDED_OK) == []

    def test_identity_keyed_lookup_in_hot_function(self):
        assert "REP015" in rules_of(lint_det(self.HASH_KEYED))

    def test_cross_file_reachability_names_the_hot_root(self, tmp_path):
        (tmp_path / "kernel_mod.py").write_text(
            "from helpers_det import jitter\n"
            "from repro.checkers.hotpath import hot_path\n"
            "@hot_path\n"
            "def stencil_kernel(x):\n"
            "    return jitter(x)\n"
        )
        (tmp_path / "helpers_det.py").write_text(
            "import random\n"
            "def jitter(x):\n"
            "    return x * (1.0 + random.random())\n"
        )
        violations, n_files = lint_paths([str(tmp_path)], rules=DET)
        assert n_files == 2
        hits = [v for v in violations if v.rule == "REP015"]
        assert hits, "cross-file ambient hazard not found"
        assert any("stencil_kernel" in v.message for v in hits)
        assert any(v.path.endswith("helpers_det.py") for v in hits)

    def test_cold_helper_not_reachable_from_hot_is_fine(self, tmp_path):
        (tmp_path / "helpers_cold.py").write_text(
            "import random\n"
            "def shuffle_seed(x):\n"
            "    return x * (1.0 + random.random())\n"
        )
        violations, _ = lint_paths([str(tmp_path)], rules=DET)
        assert violations == []


# ---------------------------------------------------------------------------
# REP016: FP-contraction / fast-math hazards in the C backend
# ---------------------------------------------------------------------------


class TestRep016:
    FAST_MATH = 'COMPILE_ARGS = ["-O3", "-ffast-math"]\n'
    NO_CONTRACT_OFF = 'COMPILE_ARGS = ["-O2"]\n'
    BLESSED_FLAGS = 'COMPILE_ARGS = ["-O3", "-ffp-contract=off"]\n'

    CSRC_FMA = (
        'CSRC = """\n'
        "#include <math.h>\n"
        "double dot(const double *a, const double *b, int n) {\n"
        "    double s = 0.0;\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        s = fma(a[i], b[i], s);\n"
        "    }\n"
        "    return s;\n"
        '}\n"""\n'
    )

    CSRC_SPLIT_ACCUM = (
        'CSRC = """\n'
        "#include <stddef.h>\n"
        "double total(const double *a, int n) {\n"
        "    double s0 = 0.0;\n"
        "    double s1 = 0.0;\n"
        "    for (int i = 0; i + 1 < n; i += 2) {\n"
        "        s0 += a[i];\n"
        "        s1 += a[i + 1];\n"
        "    }\n"
        "    return s0 + s1;\n"
        '}\n"""\n'
    )

    CSRC_LOCAL_ACCUM = (
        'CSRC = """\n'
        "#include <stddef.h>\n"
        "void scale(const double *a, double *out, int n) {\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        double t0 = 0.0;\n"
        "        t0 += a[i] * 2.0;\n"
        "        out[i] = t0;\n"
        "    }\n"
        '}\n"""\n'
    )

    def test_fast_math_flag(self):
        assert "REP016" in rules_of(lint_det(self.FAST_MATH))

    def test_missing_fp_contract_off(self):
        assert "REP016" in rules_of(
            lint_det(self.NO_CONTRACT_OFF)
        )

    def test_blessed_flags(self):
        assert lint_det(self.BLESSED_FLAGS) == []

    def test_explicit_fma_in_c_source(self):
        violations = lint_det(self.CSRC_FMA)
        assert "REP016" in rules_of(violations)
        # line number points into the embedded C, not at the assignment
        hit = next(v for v in violations if v.rule == "REP016")
        assert hit.line > 1

    def test_split_accumulators_recombined(self):
        assert "REP016" in rules_of(
            lint_det(self.CSRC_SPLIT_ACCUM)
        )

    def test_per_iteration_accumulator_is_blessed(self):
        assert lint_det(self.CSRC_LOCAL_ACCUM) == []


# ---------------------------------------------------------------------------
# Property-based: hazard placement and blessed constructs
# ---------------------------------------------------------------------------


SAFE_BLOCKS = (
    "    for x in sorted(set(items)):\n        out.append(x)\n",
    "    for x in list(items):\n        out.append(x)\n",
    "    for x in items_list:\n        out.append(x)\n",
    "    acc = 0.0\n    for x in sorted(set(items)):\n        acc += x\n",
)

HAZARD_BLOCK = "    for x in set(items):\n        out.append(x)\n"


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from(SAFE_BLOCKS), min_size=0, max_size=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_single_hazard_always_found(self, safe, pos):
        pos = min(pos, len(safe))
        blocks = list(safe[:pos]) + [HAZARD_BLOCK] + list(safe[pos:])
        src = ("def plan(items, items_list):\n    out = []\n"
               + "".join(blocks) + "    return out\n")
        violations = lint_det(src)
        assert rules_of(violations) == ["REP013"]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(SAFE_BLOCKS), min_size=1, max_size=6))
    def test_blessed_programs_stay_clean(self, safe):
        src = ("def plan(items, items_list):\n    out = []\n"
               + "".join(safe) + "    return out\n")
        assert lint_det(src) == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_seeded_rng_never_flagged(self, seed):
        src = (
            "import numpy as np\n"
            "from repro.checkers.hotpath import hot_path\n"
            "@hot_path\n"
            "def kernel(f):\n"
            f"    rng = np.random.default_rng({seed})\n"
            "    return f + rng.standard_normal()\n"
        )
        assert lint_det(src) == []


# ---------------------------------------------------------------------------
# Fingerprints: digests, localization, checkpoint embedding
# ---------------------------------------------------------------------------


def make_state(fill: float = 0.0, shape=(2, 3, 4)) -> MHDState:
    return MHDState(*[np.full(shape, fill + i) for i in range(len(FIELD_NAMES))])


def make_pair(fill: float = 0.0):
    return {Panel.YIN: make_state(fill), Panel.YANG: make_state(fill + 0.5)}


class TestFieldDigest:
    def test_copy_shares_digest(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        assert field_digest(a) == field_digest(a.copy())

    def test_shape_is_part_of_the_digest(self):
        a = np.arange(8.0).reshape(2, 4)
        assert field_digest(a) != field_digest(a.reshape(4, 2))

    def test_dtype_is_part_of_the_digest(self):
        a = np.arange(8.0)
        assert field_digest(a) != field_digest(a.astype(np.float32))

    def test_signed_zero_differs(self):
        a = np.zeros(4)
        b = np.zeros(4)
        b[0] = -0.0
        assert field_digest(a) != field_digest(b)

    def test_identical_nan_payloads_match(self):
        a = np.array([np.nan, 1.0])
        assert field_digest(a) == field_digest(a.copy())

    def test_noncontiguous_view_hashes_like_its_copy(self):
        a = np.arange(24.0).reshape(4, 6)
        view = a[:, ::2]
        assert field_digest(view) == field_digest(view.copy())


class TestFingerprint:
    def test_single_state_uses_single_layout(self):
        fp = fingerprint_state(make_state())
        assert set(fp.fields) == {"single"}
        assert set(fp.fields["single"]) == set(FIELD_NAMES)

    def test_panel_pair(self):
        fp = fingerprint_state(make_pair(), step=3, time=0.25)
        assert set(fp.fields) == {"yin", "yang"}
        assert fp.step == 3 and fp.time == 0.25

    def test_root_reacts_to_any_field(self):
        pair = make_pair()
        base = fingerprint_state(pair).root
        pair[Panel.YANG].p[0, 0, 0] += 1.0
        assert fingerprint_state(pair).root != base

    def test_states_root_digest_matches_fingerprint(self):
        pair = make_pair()
        assert states_root_digest(pair) == fingerprint_state(pair).root


class TestFirstDivergence:
    def timelines(self, perturb_step):
        ref, got = [], []
        for k in range(4):
            pair = make_pair(float(k))
            ref.append(fingerprint_state(pair, step=k))
            if k >= perturb_step:
                pair = {p: MHDState(*[a.copy() for _, a in s.named_arrays()])
                        for p, s in pair.items()}
                pair[Panel.YANG].p[0, 0, 0] *= -1.0  # 0.5+k -> sign flip
            got.append(fingerprint_state(pair, step=k))
        return ref, got

    def test_identical_timelines(self):
        ref, _ = self.timelines(99)
        assert first_divergence(ref, list(ref)) is None

    def test_localizes_step_panel_field(self):
        ref, got = self.timelines(2)
        div = first_divergence(ref, got)
        assert (div.step, div.panel, div.field) == (2, "yang", "p")
        assert "step 2" in div.describe() and "'p'" in div.describe()

    def test_restart_leg_matches_on_common_steps_only(self):
        ref, _ = self.timelines(99)
        assert first_divergence(ref, ref[2:]) is None

    def test_layout_mismatch_reported(self):
        a = [fingerprint_state(make_pair(), step=0)]
        b = [fingerprint_state(make_state(), step=0)]
        assert first_divergence(a, b).field == "<layout>"


class TestAssertBitwiseEqual:
    def test_passes_on_equal_states(self):
        assert_bitwise_equal(make_pair(), make_pair())

    def test_names_the_divergent_field(self):
        a, b = make_pair(), make_pair()
        fr = b[Panel.YIN].fr
        fr[1, 1, 1] = np.nextafter(fr[1, 1, 1], np.inf)
        with pytest.raises(AssertionError, match=r"'yin'.*'fr'"):
            assert_bitwise_equal(a, b, step=7, context="unit")


class TestCheckpointFingerprint:
    def test_save_embeds_root_digest(self, tmp_path):
        from repro.core.checkpoint import read_meta, save_checkpoint

        pair = make_pair()
        path = save_checkpoint(tmp_path / "cp.npz", pair, time=0.5, step=3)
        assert read_meta(path)["fingerprint"] == states_root_digest(pair)

    def test_verify_checkpoint_round_trip(self, tmp_path):
        from repro.core.checkpoint import save_checkpoint, verify_checkpoint

        state = make_state()
        path = save_checkpoint(tmp_path / "cp.npz", state, time=0.5, step=3)
        assert verify_checkpoint(path) == states_root_digest(state)

    def test_verify_checkpoint_catches_tampering(self, tmp_path):
        from repro.core.checkpoint import save_checkpoint, verify_checkpoint

        path = save_checkpoint(tmp_path / "cp.npz", make_state(), step=1)
        data = dict(np.load(path))
        data["single:p"] = data["single:p"] + 1.0
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            verify_checkpoint(path)


class TestFingerprintObserver:
    @pytest.fixture(scope="class")
    def config(self):
        from repro.core import RunConfig
        from repro.mhd.parameters import MHDParameters

        return RunConfig(nr=5, nth=10, nph=30,
                         params=MHDParameters.laptop_demo(), dt=1e-3,
                         amp_temperature=1e-2)

    def run_serial(self, config, steps, extra=()):
        from repro.core import YinYangDynamo
        from repro.engine import FingerprintObserver

        driver = YinYangDynamo(config)
        observer = FingerprintObserver()
        driver.run(steps, observers=(*extra, observer))
        return observer.fingerprints

    def test_run_to_run_stability(self, config):
        a = self.run_serial(config, 2)
        b = self.run_serial(config, 2)
        assert len(a) == 3  # pre-step capture + one per step
        assert first_divergence(a, b) is None

    def test_induced_perturbation_is_localized(self, config):
        from repro.engine import StepObserver

        class Perturb(StepObserver):
            def after_step(self, event):
                if event.step == 2:
                    p = event.driver.state[Panel.YANG].p
                    p[0, 0, 0] = np.nextafter(p[0, 0, 0], np.inf)

        ref = self.run_serial(config, 3)
        got = self.run_serial(config, 3, extra=(Perturb(),))
        div = first_divergence(ref, got)
        assert (div.step, div.panel, div.field) == (2, "yang", "p")

    def test_requires_a_state_attribute(self):
        from repro.engine import FingerprintObserver

        with pytest.raises(TypeError, match="state"):
            FingerprintObserver().on_start(object())


# ---------------------------------------------------------------------------
# Rule selection in the one driver
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_rule_subset_routing(self, tmp_path):
        (tmp_path / "dirty.py").write_text(
            TestRep013.SET_APPEND + TestRep016.FAST_MATH
        )
        only_16, _ = lint_paths([str(tmp_path)], rules=["REP016"])
        assert set(rules_of(only_16)) == {"REP016"}


class TestCli:
    def test_lint_runs_all_families_by_default(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "bad.py"
        f.write_text(TestRep013.SET_APPEND)
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(f)])
        assert exc.value.code == 1
        assert "REP013" in capsys.readouterr().out

    def test_lint_determinism_rule_subset(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "bad.py"
        f.write_text(TestRep016.FAST_MATH)
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--rules", "REP016", "--format", "json", str(f)])
        assert exc.value.code == 1

    def test_verify_bitwise_thread_case(self, capsys):
        from repro.cli import main

        assert main(["verify-bitwise", "--cases", "thread",
                     "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "thread" in out and "OK" in out

    def test_verify_bitwise_names_every_kernel_row(self, capsys, monkeypatch):
        """fused, c and the unset default are separate, explicit rows,
        whatever the ambient REPRO_KERNELS says."""
        from repro.cli import _verify_bitwise_cases, main

        rows = {name: (kernels, ref) for name, kernels, ref, _ in
                _verify_bitwise_cases()}
        assert rows["fused"] == ("fused", "fused")
        assert rows["c"] == ("c", "fused")
        assert rows["default"] == (None, "fused")
        assert all(kernels == "c" and ref == "fused"
                   for name, (kernels, ref) in rows.items()
                   if name not in ("fused", "c", "default"))
        monkeypatch.setenv("REPRO_KERNELS", "numpy")  # must not leak into the rows
        assert main(["verify-bitwise", "--cases", "fused,default",
                     "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "fused            OK" in out and "default          OK" in out
        assert "on numpy" not in out
