"""The six reprolint rules (R1–R6).

Each rule is a function over a :class:`~tools.reprolint.core.LintContext`
yielding :class:`~tools.reprolint.core.Finding`s; registration happens
via the :func:`~tools.reprolint.core.rule` decorator, which is what the
CLI's ``--list-rules`` and DESIGN.md §15's catalogue check walk.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from tools.reprolint.config import LAYER_PACKAGE
from tools.reprolint.core import Finding, LintContext, rule

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _enclosing_functions(ctx: LintContext, node: ast.AST) -> List[ast.AST]:
    """Innermost-first chain of functions the node sits inside."""
    return [a for a in ctx.file.ancestors(node) if isinstance(a, _FUNC_NODES)]


def _qualname(ctx: LintContext, func: ast.AST) -> str:
    parts = [func.name]
    for anc in ctx.file.ancestors(func):
        if isinstance(anc, _FUNC_NODES + (ast.ClassDef,)):
            parts.append(anc.name)
    return ".".join(reversed(parts))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_str_literal(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)) \
        or isinstance(node, ast.JoinedStr)


# --------------------------------------------------------------------------
@rule(
    "R1", "hot-path-format",
    "no f-strings / % / .format() / string concatenation inside "
    "registered hot-path functions (keys are pre-formatted at "
    "construction; error paths inside `raise` are exempt)",
    "§7 Rule 1",
)
def check_hot_path_format(ctx: LintContext) -> Iterator[Finding]:
    cfg = ctx.config
    rel = ctx.file.rel
    if not cfg.is_hot(rel):
        return
    extra_cold = cfg.extra_cold(rel)

    def is_cold(node: ast.AST) -> bool:
        funcs = _enclosing_functions(ctx, node)
        if not funcs:
            return True  # module level: constants, one-time key tables
        for f in funcs:
            if _is_dunder(f.name) or _qualname(ctx, f) in extra_cold:
                return True
        # An error path aborts the run — formatting there never costs
        # an event (§7: "banned from event paths").
        return any(isinstance(a, ast.Raise) for a in ctx.file.ancestors(node))

    def hot_fn(node: ast.AST) -> str:
        funcs = _enclosing_functions(ctx, node)
        return _qualname(ctx, funcs[0]) if funcs else "<module>"

    for node in ast.walk(ctx.file.tree):
        if isinstance(node, ast.JoinedStr):
            # Only the outermost f-string of a nest reports.
            if any(isinstance(a, ast.JoinedStr) for a in ctx.file.ancestors(node)):
                continue
            if not is_cold(node):
                yield Finding(rel, node.lineno, "R1",
                              f"f-string in hot-path function {hot_fn(node)}()"
                              " — pre-format the key at construction")
        elif isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Mod) and _is_str_literal(node.left):
                if not is_cold(node):
                    yield Finding(rel, node.lineno, "R1",
                                  f"%-formatting in hot-path function "
                                  f"{hot_fn(node)}()")
            elif isinstance(node.op, ast.Add) and (
                _is_str_literal(node.left) or _is_str_literal(node.right)
            ):
                if not is_cold(node):
                    yield Finding(rel, node.lineno, "R1",
                                  f"string concatenation in hot-path "
                                  f"function {hot_fn(node)}()")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "format" \
                    and _is_str_literal(func.value):
                if not is_cold(node):
                    yield Finding(rel, node.lineno, "R1",
                                  f".format() in hot-path function "
                                  f"{hot_fn(node)}()")


# --------------------------------------------------------------------------
def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        dotted = _dotted(base)
        if dotted is not None:
            names.append(dotted.rsplit(".", 1)[-1])
    return names


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "__slots__":
                return True
    return False


def _is_slotted_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        dotted = _dotted(deco.func)
        if dotted is None or dotted.rsplit(".", 1)[-1] != "dataclass":
            continue
        for kw in deco.keywords:
            if kw.arg == "slots" and isinstance(kw.value, ast.Constant) \
                    and kw.value.value is True:
                return True
    return False


@rule(
    "R2", "slotted-classes",
    "every class in the model packages defines __slots__ (directly or "
    "via @dataclass(slots=True)); exceptions / enums / Protocols are "
    "structurally exempt, instance-__dict__ seams carry a pragma",
    "§7 Rules 2–3",
)
def check_slotted_classes(ctx: LintContext) -> Iterator[Finding]:
    cfg = ctx.config
    rel = ctx.file.rel
    if not cfg.in_packages(rel, cfg.slotted_packages):
        return
    for node in ast.walk(ctx.file.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _has_slots(node) or _is_slotted_dataclass(node):
            continue
        bases = _base_names(node)
        if any(
            b in cfg.exempt_base_names
            or b in ("Exception", "BaseException")
            or b.endswith(("Error", "Exception", "Warning"))
            for b in bases
        ):
            continue
        yield Finding(rel, node.lineno, "R2",
                      f"class {node.name} has no __slots__ — add them, use "
                      "@dataclass(slots=True), or pragma the __dict__ seam")


# --------------------------------------------------------------------------
@rule(
    "R3", "determinism",
    "no wall-clock / entropy reads (time.time, datetime.now, "
    "os.urandom, uuid.*) and no process-global random.* calls — "
    "randomness flows through seeded random.Random / "
    "np.random.default_rng instances only",
    "golden-fingerprint contract (§10, tests/test_golden_fingerprints.py)",
)
def check_determinism(ctx: LintContext) -> Iterator[Finding]:
    cfg = ctx.config
    rel = ctx.file.rel
    if cfg.determinism_exempt(rel):
        return
    for node in ast.walk(ctx.file.tree):
        if isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if chain is None:
                continue
            for tail in cfg.wall_clock_tails:
                if chain == tail or chain.endswith("." + tail):
                    yield Finding(rel, node.lineno, "R3",
                                  f"wall-clock/entropy call {chain}() breaks "
                                  "bit-identical reproduction")
                    break
            else:
                root, _, rest = chain.partition(".")
                if rest and root in cfg.entropy_modules:
                    yield Finding(rel, node.lineno, "R3",
                                  f"entropy call {chain}() breaks "
                                  "bit-identical reproduction")
                elif root == "random" and rest:
                    attr = rest.split(".", 1)[0]
                    if attr not in cfg.random_allowed_attrs:
                        yield Finding(
                            rel, node.lineno, "R3",
                            f"process-global RNG call {chain}() — construct "
                            "a seeded random.Random instance instead")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            banned = cfg.banned_from_imports.get(node.module or "")
            if node.module in cfg.banned_from_imports:
                for alias in node.names:
                    if banned is None or alias.name in banned or alias.name == "*":
                        yield Finding(
                            rel, node.lineno, "R3",
                            f"from {node.module} import {alias.name} hides a "
                            "non-deterministic call from the linter — use the "
                            "qualified module form or a seeded instance")


# --------------------------------------------------------------------------
def _mentions_auditor(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "auditor" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "auditor" in sub.attr.lower():
            return True
    return False


@rule(
    "R4", "audit-placement",
    "no auditor conditionals (`if self.auditor ...`) inside per-event "
    "methods — audit handles are installed at construction, so the "
    "disabled path carries zero per-event branches",
    "§10.2",
)
def check_audit_placement(ctx: LintContext) -> Iterator[Finding]:
    cfg = ctx.config
    rel = ctx.file.rel
    if not cfg.in_packages(rel, cfg.audit_scoped_packages):
        return
    if rel in cfg.audit_exempt_files:
        return

    def construction_time(node: ast.AST) -> bool:
        funcs = _enclosing_functions(ctx, node)
        if not funcs:
            return True  # module/class level
        for f in funcs:
            name = f.name
            if name in cfg.construction_names or _is_dunder(name) \
                    or name.startswith(cfg.construction_prefixes):
                return True
        return False

    for node in ast.walk(ctx.file.tree):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        if not _mentions_auditor(node.test):
            continue
        if construction_time(node):
            continue
        funcs = _enclosing_functions(ctx, node)
        where = _qualname(ctx, funcs[0]) if funcs else "<module>"
        yield Finding(rel, node.lineno, "R4",
                      f"auditor conditional in per-event method {where}() — "
                      "install the audit handle at construction (§10.2)")


# --------------------------------------------------------------------------
@rule(
    "R5", "pickle-boundary",
    "no lambdas or closure-local functions in objects that cross the "
    "executor pickle boundary (SimulationJob) or are re-resolved by "
    "name in workers (ExperimentSpec / WorkloadDef / ScenarioSpec "
    "registry entries)",
    "§3 executor contract (picklable jobs, importable callables)",
)
def check_pickle_boundary(ctx: LintContext) -> Iterator[Finding]:
    cfg = ctx.config
    rel = ctx.file.rel

    # Map each function to the names of functions defined directly
    # inside it (closure-local defs).
    nested: Dict[int, Set[str]] = {}
    for node in ast.walk(ctx.file.tree):
        if isinstance(node, _FUNC_NODES):
            funcs = _enclosing_functions(ctx, node)
            if funcs:
                nested.setdefault(id(funcs[0]), set()).add(node.name)

    for node in ast.walk(ctx.file.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        ctor = dotted.rsplit(".", 1)[-1]
        if ctor not in cfg.pickle_boundary_calls:
            continue
        local_names: Set[str] = set()
        for f in _enclosing_functions(ctx, node):
            local_names |= nested.get(id(f), set())
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            for sub in ast.walk(value):
                if isinstance(sub, ast.Lambda):
                    yield Finding(
                        rel, sub.lineno, "R5",
                        f"lambda inside {ctor}(...) cannot cross the "
                        "executor pickle boundary — use a named "
                        "module-level function")
                elif isinstance(sub, ast.Name) and sub.id in local_names:
                    yield Finding(
                        rel, sub.lineno, "R5",
                        f"closure-local function {sub.id!r} inside "
                        f"{ctor}(...) cannot cross the executor pickle "
                        "boundary — hoist it to module level")


# --------------------------------------------------------------------------
def _under_type_checking(ctx: LintContext, node: ast.AST) -> bool:
    """True if ``node`` sits in the body of an ``if TYPE_CHECKING:``."""
    child = node
    for anc in ctx.file.ancestors(node):
        if isinstance(anc, ast.If) and child in anc.body:
            name = _dotted(anc.test)
            if name is not None and name.rsplit(".", 1)[-1] == "TYPE_CHECKING":
                return True
        child = anc
    return False


def _imported_packages(ctx: LintContext, node: ast.AST) -> Iterator[str]:
    """First component below the layer package of each imported module."""
    root = LAYER_PACKAGE
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif node.level:
        # Relative: resolve against the file's own package path.
        here = [root] + ctx.file.rel.split("/")[:-1]
        base = here[: max(len(here) - node.level + 1, 0)]
        modules = [".".join(base + ([node.module] if node.module else []))]
    else:
        modules = [node.module or ""]
    for module in modules:
        parts = module.split(".")
        if parts[0] != root:
            continue
        if len(parts) > 1:
            yield parts[1]
        elif isinstance(node, ast.ImportFrom):
            # ``from repro import workloads`` names the package itself.
            yield from (alias.name for alias in node.names)


@rule(
    "R6", "layering",
    "no module-level import from a model package (core/ dram/ xpoint/ "
    "optical/ channel/ sim/ hetero/ hoststorage/) into workloads/ "
    "harness/ scenarios/ cli — imports point down the layer stack; "
    "`if TYPE_CHECKING:` imports are exempt",
    "§15.2 layer table",
)
def check_layering(ctx: LintContext) -> Iterator[Finding]:
    cfg = ctx.config
    rel = ctx.file.rel
    if not cfg.in_packages(rel, cfg.lower_layers):
        return
    for node in ast.walk(ctx.file.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if _enclosing_functions(ctx, node) or _under_type_checking(ctx, node):
            continue
        for package in _imported_packages(ctx, node):
            if package in cfg.upper_layers:
                yield Finding(rel, node.lineno, "R6",
                              f"module-level import of upper layer "
                              f"{LAYER_PACKAGE}.{package} from "
                              f"{rel.split('/', 1)[0]}/ — import it under "
                              "TYPE_CHECKING or inside the function that "
                              "needs it")
