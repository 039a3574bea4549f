"""reprolint: an AST rule-checker for this repo's own rules.

The repo's correctness story rests on conventions DESIGN.md states as
prose — §7's hot-path rules, §10.2's zero-cost audit placement, and
the determinism contract behind every golden fingerprint.  reprolint
makes them mechanical: six repo-specific rules (R1–R6) over a plain
``ast`` walk, with mandatory-reason ``# reprolint: allow(...)``
pragmas, a gating CI job, and ``repro lint`` / ``python -m
tools.reprolint`` entry points.  The generic layer (unused imports,
undefined names, style) is ruff's job (``[tool.ruff]`` in
pyproject.toml); reprolint carries only the rules no generic linter
knows about.  Rule catalogue: DESIGN.md §15.
"""

from tools.reprolint import rules as _rules  # noqa: F401  (registers rules)
from tools.reprolint.config import LintConfig
from tools.reprolint.core import (
    PRAGMA_RULE_ID,
    Finding,
    LintReport,
    RULES,
    run_lint,
)

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "PRAGMA_RULE_ID",
    "RULES",
    "run_lint",
]
