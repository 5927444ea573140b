"""The lint core: REP001's failing fixtures and clean counterexamples,
the noqa escape hatch, the one driver (rule table, rule selection, the
whole-tree self-lint) and the CLI surface."""

import json

import pytest

from repro.checkers.hotpath import hot_path, is_hot_path
from repro.checkers.linter import RULES, lint_paths, lint_source, to_json


#: the rules these fixtures exercise
CORE = ["REP001"]


def codes(source, rules=CORE, **kw):
    return [v.rule for v in lint_source(source, rules=rules, **kw)]


class TestHotPathMarker:
    def test_marks_without_wrapping(self):
        def f(x):
            return x

        g = hot_path(f)
        assert g is f
        assert is_hot_path(g)
        assert not is_hot_path(lambda x: x)


class TestRep001:
    BAD = """
import numpy as np
from repro.checkers import hot_path

@hot_path
def kernel(f, out):
    tmp = np.zeros(f.shape)
    out[...] = tmp
"""

    LOOP_TEMP = """
from repro.checkers import hot_path

@hot_path
def accumulate(fields, out):
    for k, f in enumerate(fields):
        out[k] += 2.0 * f
"""

    CLEAN = """
import numpy as np
from repro.checkers import hot_path

@hot_path
def kernel(f, out, pool, scratch):
    np.multiply(f, 2.0, out=scratch)
    for k in range(3):
        np.add(out[k], scratch, out=out[k])
        out[k + 1] = scratch
"""

    UNDECORATED = """
import numpy as np

def cold(f):
    return np.zeros(f.shape)
"""

    def test_allocating_call_flagged(self):
        vs = lint_source(self.BAD, rules=CORE)
        assert [v.rule for v in vs] == ["REP001"]
        assert "np.zeros" in vs[0].message
        assert vs[0].line == 7

    def test_loop_operator_temporary_flagged(self):
        vs = lint_source(self.LOOP_TEMP, rules=CORE)
        assert [v.rule for v in vs] == ["REP001"]
        assert "operator temporary" in vs[0].message

    def test_out_argument_style_is_clean(self):
        assert codes(self.CLEAN) == []

    def test_undecorated_functions_may_allocate(self):
        assert codes(self.UNDECORATED) == []

    def test_copy_method_flagged(self):
        src = """
from repro.checkers import hot_path

@hot_path
def kernel(f):
    return f.copy()
"""
        assert codes(src) == ["REP001"]

    def test_index_arithmetic_not_flagged(self):
        src = """
from repro.checkers import hot_path

@hot_path
def shift(f, out, n):
    for i in range(n):
        out[i + 1] = f[i]
"""
        assert codes(src) == []

    def test_noqa_suppresses(self):
        src = """
import numpy as np
from repro.checkers import hot_path

@hot_path
def kernel(f):
    buf = np.empty(f.shape)  # repro: noqa-REP001
    return buf
"""
        assert codes(src) == []

    def test_noqa_is_rule_specific(self):
        src = """
import numpy as np
from repro.checkers import hot_path

@hot_path
def kernel(f):
    buf = np.empty(f.shape)  # repro: noqa-REP013
    return buf
"""
        assert codes(src) == ["REP001"]

    def test_noqa_comma_list(self):
        src = """
import numpy as np
from repro.checkers import hot_path

@hot_path
def kernel(f):
    buf = np.empty(f.shape)  # repro: noqa-REP013, REP001
    return buf
"""
        assert codes(src) == []


class TestDriver:
    def test_rules_filter(self):
        both = TestRep001.BAD + """
def plan(items):
    out = []
    for x in set(items):
        out.append(x)
    return out
"""
        assert set(codes(both, rules=None)) == {"REP001", "REP013"}
        assert codes(both, rules=["REP001"]) == ["REP001"]

    def test_registry_covers_all_rules(self):
        assert set(CORE) <= set(RULES)
        assert all(isinstance(summary, str) and callable(check)
                   for summary, check in RULES.values())

    def test_violations_sorted_and_located(self):
        vs = lint_source(TestRep001.BAD, path="fixture.py", rules=CORE)
        assert vs[0].path == "fixture.py"
        assert vs[0].line > 0 and vs[0].col >= 0
        assert "fixture.py:7" in vs[0].format()

    def test_json_output_round_trips(self):
        vs = lint_source(TestRep001.BAD, path="fixture.py", rules=CORE)
        doc = json.loads(to_json(vs, 1))
        assert doc["count"] == 1 and doc["files"] == 1
        assert doc["violations"][0]["rule"] == "REP001"
        assert doc["violations"][0]["path"] == "fixture.py"

    def test_source_tree_is_clean(self):
        violations, n_files = lint_paths(["src"])
        assert n_files > 50
        assert violations == []

    def test_lint_paths_accepts_single_file(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(TestRep001.BAD)
        violations, n_files = lint_paths([str(f)], rules=CORE)
        assert n_files == 1
        assert [v.rule for v in violations] == ["REP001"]
        assert violations[0].path == str(f)


class TestCli:
    def test_lint_clean_exit(self, capsys):
        from repro.cli import main

        assert main(["lint", "src/repro/checkers"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_lint_json_mode(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "bad.py"
        f.write_text(TestRep001.BAD)
        with pytest.raises(SystemExit):
            main(["lint", "--format", "json", str(f)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1 and doc["files"] == 1
        assert doc["violations"][0]["rule"] == "REP001"

    def test_lint_failing_file_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "bad.py"
        f.write_text(TestRep001.BAD)
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(f)])
        assert exc.value.code == 1
        assert "REP001" in capsys.readouterr().out

    def test_unknown_rule_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["lint", "--rules", "REP999", "src/repro/checkers"])

    @pytest.mark.parametrize("flag", ["--all", "--shapes", "--schedule"])
    def test_retired_family_flags_rejected(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["lint", flag, "src/repro/checkers"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
