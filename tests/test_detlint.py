"""The determinism linter: rules, scope, pragmas, CLI.

Fixtures live in ``tests/detlint_fixtures/`` laid out like the real
package (``sim/`` and ``runtime/`` are protocol code); its empty
``__main__.py`` makes it a package root, so categories resolve
identically to ``src/repro`` with no root argument.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools.detlint import RULES, lint_paths
from repro.tools.detlint.classify import classify, is_wallclock_chokepoint
from repro.tools.detlint.cli import main as lint_main
from repro.tools.detlint.cli import text_report
from repro.tools.detlint.engine import lint_file

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "detlint_fixtures"
REPO_ROOT = TESTS_DIR.parent
SRC = REPO_ROOT / "src"


def lint_fixture(name):
    return lint_paths([FIXTURES / name])


def hits(result, rule_id):
    return [v for v in result.violations if v.rule_id == rule_id]


def lint_outside_protocol(tmp_path, fixture):
    """Lint a copy of ``sim/<fixture>`` placed under ``experiments/``
    of a throwaway package root."""
    (tmp_path / "__main__.py").touch()
    (tmp_path / "experiments").mkdir()
    shutil.copy(FIXTURES / "sim" / fixture, tmp_path / "experiments")
    result = lint_paths([tmp_path / "experiments" / fixture])
    assert [f.relpath for f in result.files] == [f"experiments/{fixture}"]
    return result


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

class TestClassify:
    def test_fixture_sim_is_protocol(self):
        fc = classify(FIXTURES / "sim" / "entropy_bad.py")
        assert fc.protocol
        assert fc.relpath == "sim/entropy_bad.py"

    def test_real_tree_autodetects_root(self):
        fc = classify(SRC / "repro" / "sim" / "engine.py")
        assert fc.protocol
        assert fc.relpath == "sim/engine.py"

    def test_tools_are_exempt_category(self):
        for rel in ("tools/detlint/engine.py", "experiments/common.py",
                    "viz/figures.py", "__main__.py"):
            assert not classify(SRC / "repro" / rel).protocol, rel

    def test_runtime_is_protocol(self):
        for name in ("base.py", "sim_runtime.py", "async_runtime.py"):
            fc = classify(SRC / "repro" / "runtime" / name)
            assert fc.protocol, name

    def test_client_is_protocol(self):
        # TerraDirClient runs inside the engine; its counters are part
        # of run_fingerprint
        assert classify(SRC / "repro" / "client" / "client.py").protocol

    def test_wallclock_chokepoint_predicate(self):
        assert is_wallclock_chokepoint("runtime/async_runtime.py")
        assert is_wallclock_chokepoint("runtime/async_serve.py")
        assert not is_wallclock_chokepoint("runtime/sim_runtime.py")
        assert not is_wallclock_chokepoint("runtime/base.py")
        # the sanction is position-sensitive: neither an async_* file
        # elsewhere nor a nested one qualifies
        assert not is_wallclock_chokepoint("sim/async_probe.py")
        assert not is_wallclock_chokepoint("async_runtime.py")
        assert not is_wallclock_chokepoint("runtime/sub/async_x.py")


# ----------------------------------------------------------------------
# rule catalog
# ----------------------------------------------------------------------

class TestCatalog:
    def test_three_rules(self):
        assert [(r.id, r.name) for r in RULES] == [
            ("DET001", "wall-clock-entropy"),
            ("DET002", "sized-presence-truthiness"),
            ("DET003", "loop-closure-capture"),
        ]


# ----------------------------------------------------------------------
# DET001 wall-clock-entropy
# ----------------------------------------------------------------------

class TestEntropy:
    def test_positives(self):
        result = lint_fixture("sim/entropy_bad.py")
        found = hits(result, "DET001")
        # module random x2, from-import alias, unseeded Random(),
        # time.time, datetime.now, uuid.uuid4
        assert len(found) == 7
        messages = " ".join(v.message for v in found)
        assert "seeded stream" in messages
        assert "wall clock" in messages

    def test_negatives(self):
        result = lint_fixture("sim/entropy_ok.py")
        assert hits(result, "DET001") == []

    def test_rule_scoped_to_protocol(self, tmp_path):
        result = lint_outside_protocol(tmp_path, "entropy_bad.py")
        assert result.violations == []

    def test_runtime_async_files_are_sanctioned(self):
        # runtime/async_* is the live-mode wall-clock funnel
        result = lint_fixture("runtime/async_probe.py")
        assert hits(result, "DET001") == []

    def test_runtime_sim_side_keeps_contract(self):
        # ...but the sanction must not leak to the rest of runtime/
        result = lint_fixture("runtime/sim_probe.py")
        assert len(hits(result, "DET001")) == 2  # time.time + random


# ----------------------------------------------------------------------
# DET002 sized-presence-truthiness
# ----------------------------------------------------------------------

class TestTruthiness:
    def test_positives(self):
        result = lint_fixture("sim/truthiness_bad.py")
        found = hits(result, "DET002")
        assert len(found) == 6
        or_hits = [v for v in found if "'or " in v.message]
        assert len(or_hits) == 2  # make_engine() and []

    def test_negatives(self):
        result = lint_fixture("sim/truthiness_ok.py")
        assert hits(result, "DET002") == []

    def test_rule_scoped_to_protocol(self, tmp_path):
        result = lint_outside_protocol(tmp_path, "truthiness_bad.py")
        assert result.violations == []


# ----------------------------------------------------------------------
# DET003 loop-closure-capture
# ----------------------------------------------------------------------

class TestClosures:
    def test_positives(self):
        result = lint_fixture("sim/closures_bad.py")
        found = hits(result, "DET003")
        assert len(found) == 4
        kinds = " ".join(v.message for v in found)
        assert "generator expression" in kinds
        assert "lambda" in kinds
        assert "nested def" in kinds

    def test_negatives(self):
        result = lint_fixture("sim/closures_ok.py")
        assert hits(result, "DET003") == []

    def test_rule_scoped_to_protocol(self, tmp_path):
        # outside protocol code, ruff B023 covers this bug class
        result = lint_outside_protocol(tmp_path, "closures_bad.py")
        assert result.violations == []


# ----------------------------------------------------------------------
# PR 7 regressions: both historical bugs must be caught
# ----------------------------------------------------------------------

class TestPR7Regressions:
    def test_stats_merge_genexp_is_caught(self):
        result = lint_fixture("sim/regression_pr7.py")
        genexp = [
            v for v in hits(result, "DET003")
            if "shard_id" in v.message
        ]
        assert genexp, "the PR 7 stats-merge genexp bug must be flagged"

    def test_engine_or_default_is_caught(self):
        result = lint_fixture("sim/regression_pr7.py")
        ordefault = [
            v for v in hits(result, "DET002")
            if "make_engine" in v.message
        ]
        assert ordefault, "the PR 7 engine-or-default bug must be flagged"

    def test_fixed_shapes_in_tree_are_clean(self):
        # the real, fixed implementations of both bug sites
        for rel in ("sim/shard.py", "net/dispatch.py"):
            fclass, kept, _, err = lint_file(SRC / "repro" / rel)
            assert err is None
            assert [v for v in kept if v.rule_id in ("DET002", "DET003")] \
                == [], rel


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------

class TestPragmas:
    def test_valid_pragmas_suppress(self):
        result = lint_fixture("sim/pragma_cases.py")
        assert result.violations == []
        assert len(result.suppressed) == 3
        assert result.ok

    def test_standalone_pragma_covers_multiline_justification(self):
        result = lint_fixture("sim/pragma_cases.py")
        # the pragma two comment lines above waives the statement
        assert 16 in {v.line for v in result.suppressed}

    def test_defective_pragmas_fail(self):
        result = lint_fixture("sim/pragma_bad_cases.py")
        bad = hits(result, "DET000")
        # unknown rule, missing justification, unparseable, stale
        assert len(bad) == 4
        messages = " ".join(v.message for v in bad)
        assert "unknown rule" in messages
        assert "without justification" in messages
        assert "unparseable" in messages
        assert "stale" in messages

    def test_defective_pragma_does_not_suppress(self):
        result = lint_fixture("sim/pragma_bad_cases.py")
        # the underlying DET001 hits survive their broken waivers
        assert len(hits(result, "DET001")) == 3
        assert not result.ok


# ----------------------------------------------------------------------
# input the parser cannot take
# ----------------------------------------------------------------------

class TestUnparseableInput:
    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        latin = tmp_path / "latin.py"
        latin.write_bytes(b'x = "\xe9"\n')
        assert lint_main([str(latin)]) == 1
        out = capsys.readouterr().out
        assert "latin.py: unreadable" in out and "utf-8" in out

    def test_nul_byte_error_names_no_line(self, tmp_path):
        nul = tmp_path / "nul.py"
        nul.write_bytes(b"x = 1\x00\n")
        result = lint_paths([nul])
        assert not result.ok
        [err] = result.parse_errors
        assert err.startswith("nul.py: syntax error: ")
        assert "None" not in err


# ----------------------------------------------------------------------
# report and CLI
# ----------------------------------------------------------------------

class TestReports:
    def test_text_report_shapes(self):
        result = lint_fixture("sim/entropy_bad.py")
        text = text_report(result)
        assert "det-lint: FAILED" in text
        assert "DET001" in text
        clean = lint_fixture("sim/entropy_ok.py")
        assert "det-lint: OK" in text_report(clean)


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        rc = lint_main([str(FIXTURES / "sim" / "entropy_ok.py")])
        assert rc == 0
        assert "det-lint: OK" in capsys.readouterr().out

    def test_violations_exit_one(self, capsys):
        rc = lint_main([str(FIXTURES / "sim" / "entropy_bad.py")])
        assert rc == 1
        assert "DET001" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["definitely/not/here"]) == 2
        capsys.readouterr()

    def test_paths_are_the_only_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.splitlines()[0]
        # one positional, no option but -h (older argparse spells the
        # positional "[paths [paths ...]]")
        assert re.fullmatch(
            r"usage: python -m repro lint \[-h\] "
            r"\[paths( \[paths)? \.\.\.\]\]?", usage), usage

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint",
             str(FIXTURES / "sim" / "entropy_bad.py")],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "DET001" in proc.stdout


# ----------------------------------------------------------------------
# the gate itself: the real tree must be clean
# ----------------------------------------------------------------------

class TestTreeIsClean:
    def test_src_lints_clean(self):
        result = lint_paths([SRC])
        problems = [v.format() for v in result.violations]
        assert result.parse_errors == []
        assert problems == [], "\n".join(problems)

    def test_every_waiver_is_justified(self):
        # apply_pragmas already rejects justification-free pragmas; the
        # tree carries none at all, so a new waiver is a conscious diff
        result = lint_paths([SRC])
        assert result.suppressed == []
