"""Tier-1 tests for tools/reprolint (DESIGN.md section 15).

The fixture corpus under tests/data/lint is package-shaped so the
production LintConfig applies to it unchanged; every line that must
fire carries an ``# EXPECT: <rule>`` marker and the tests compare the
linter's (line, rule) output against those markers exactly.  On top of
the corpus: the pragma grammar (suppression with a reason works,
reason-less / unknown-rule / allow(R0) pragmas are R0 findings that
suppress nothing), the clean-tree baseline over src/repro, and both
CLI surfaces (``python -m tools.reprolint`` and ``repro lint``).
"""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.reprolint import PRAGMA_RULE_ID, RULES, run_lint  # noqa: E402

FIXTURES = REPO / "tests" / "data" / "lint"
SRC = REPO / "src" / "repro"

_EXPECT_RE = re.compile(r"#\s*EXPECT:\s*([A-Z0-9, ]+)")

# Fixture files whose EXPECT markers the corpus run is compared against.
MARKER_FILES = [
    "sim/engine.py",  # R1 trigger (hot-module registry key match)
    "gpu/slots.py",  # R2 trigger
    "workloads/determinism.py",  # R3 trigger
    "gpu/audit_branch.py",  # R4 trigger
    "harness/pickle_jobs.py",  # R5 trigger
    "core/layering.py",  # R6 trigger
]
# Fixture files that must come back with zero unsuppressed findings.
CLEAN_FILES = [
    "sim/reporting.py",  # same formatting as engine.py, not registered hot
    "harness/clocky.py",  # wall clock under the harness exemption
    "gpu/pragmas.py",  # violations excused by reasoned pragmas
    "core/layering_ok.py",  # TYPE_CHECKING / function-local upward imports
    "gpu/stream_consumer.py",  # gpu/ is not a lower layer
]


def expected_markers(path: Path):
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(line)
        if m is None:
            continue
        for rid in m.group(1).split(","):
            rid = rid.strip()
            if rid:
                out.add((lineno, rid))
    return out


@pytest.fixture(scope="module")
def corpus():
    """One lint pass over the whole fixture corpus, shared by the tests."""
    return run_lint([FIXTURES])


def findings_for(report, rel):
    return [f for f in report.findings if f.path == rel]


# -- the corpus vs. its EXPECT markers -------------------------------------

@pytest.mark.parametrize("rel", MARKER_FILES)
def test_fixture_markers_match_exactly(corpus, rel):
    expected = expected_markers(FIXTURES / rel)
    assert expected, f"{rel} has no EXPECT markers — fixture rotted"
    actual = {(f.line, f.rule) for f in findings_for(corpus, rel)}
    assert actual == expected


@pytest.mark.parametrize("rel", CLEAN_FILES)
def test_non_trigger_fixtures_are_clean(corpus, rel):
    assert findings_for(corpus, rel) == []


def test_every_rule_fires_somewhere_in_the_corpus(corpus):
    fired = {f.rule for f in corpus.findings}
    assert set(RULES) <= fired  # R1..R6 all have a live trigger fixture
    assert PRAGMA_RULE_ID in fired  # pragma_bad.py keeps R0 honest


# -- the pragma grammar ----------------------------------------------------

def test_pragma_suppression_carries_reasons(corpus):
    rel = "gpu/pragmas.py"
    excused = [(f, reason) for f, reason in corpus.suppressed if f.path == rel]
    assert Counter(f.rule for f, _ in excused) == {"R2": 2, "R4": 1}
    assert all(reason for _, reason in excused)


def test_invalid_pragmas_are_findings_and_suppress_nothing(corpus):
    rel = "gpu/pragma_bad.py"
    found = findings_for(corpus, rel)
    # Each bad pragma line keeps its live R2 finding AND gains an R0.
    assert Counter(f.rule for f in found) == {"R0": 3, "R2": 3}
    r0_lines = {f.line for f in found if f.rule == "R0"}
    r2_lines = {f.line for f in found if f.rule == "R2"}
    assert r0_lines == r2_lines
    messages = " | ".join(f.message for f in found if f.rule == "R0")
    assert "no reason" in messages  # allow(R2) with nothing after it
    assert "unknown rule" in messages  # allow(R9)
    assert "cannot be suppressed" in messages  # allow(R0)
    assert not any(f.path == rel for f, _ in corpus.suppressed)


# -- the tree itself -------------------------------------------------------

def test_src_repro_is_clean():
    report = run_lint([SRC])
    assert report.clean, "\n".join(f.format() for f in report.findings)
    assert report.files_checked > 50
    # Every in-tree suppression must carry its justification.
    assert all(reason.strip() for _, reason in report.suppressed)


def test_select_restricts_rules():
    target = FIXTURES / "workloads" / "determinism.py"
    only_r2 = run_lint([target], select={"R2"})
    assert only_r2.findings == []
    only_r3 = run_lint([target], select={"R3"})
    assert only_r3.findings and all(f.rule == "R3" for f in only_r3.findings)


def test_subtree_scan_keeps_package_context():
    # Linting a subtree of src/repro rebases rel paths onto src/repro,
    # so the gpu/ package prefix (which scopes R2/R4) survives — the
    # pragma'd seams in gpu/ must still be seen (and excused).
    report = run_lint([SRC / "gpu"], rel_to=SRC)
    assert report.clean
    excused = {f.path for f, _ in report.suppressed}
    assert {"gpu/gpu.py", "gpu/sm.py"} <= excused
    # Without the rebase the prefix is stripped and R2 never fires.
    bare = run_lint([SRC / "gpu"])
    assert bare.suppressed == []


def test_rule_registry_shape():
    assert set(RULES) == {"R1", "R2", "R3", "R4", "R5", "R6"}
    assert PRAGMA_RULE_ID not in RULES  # the meta rule is not suppressible
    names = [r.name for r in RULES.values()]
    assert len(names) == len(set(names))
    for r in RULES.values():
        assert r.summary and r.design_ref


# -- CLI surfaces ----------------------------------------------------------

def _reprolint(*argv):
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *argv],
        cwd=REPO, capture_output=True, text=True,
    )


def test_cli_exit_codes():
    assert _reprolint(str(SRC)).returncode == 0  # clean tree
    assert _reprolint(str(FIXTURES)).returncode == 1  # corpus fires
    assert _reprolint("no/such/path").returncode == 2  # usage error
    assert _reprolint("--select", "R9").returncode == 2  # unknown rule id


def test_cli_json_format():
    # The corpus sits outside src/repro, so no rebase applies: the
    # corpus root must be the scan root, since the package prefix
    # (gpu/, sim/) in the rel path is what scopes R2/R4.
    proc = _reprolint("--format", "json", str(FIXTURES))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["files_checked"] == 12
    rules_seen = {f["rule"] for f in payload["findings"]}
    assert rules_seen == {"R0", "R1", "R2", "R3", "R4", "R5", "R6"}
    assert all(s["reason"] for s in payload["suppressed"])


def test_cli_list_rules():
    proc = _reprolint("--list-rules")
    assert proc.returncode == 0
    for rid in list(RULES) + [PRAGMA_RULE_ID]:
        assert rid in proc.stdout


def test_repro_lint_subcommand():
    from repro.cli import main as repro_main

    assert repro_main(["lint"]) == 0  # defaults to the clean src/repro tree
    assert repro_main(["lint", str(FIXTURES)]) == 1
    assert repro_main(["lint", "--list-rules"]) == 0
