"""Every ``repro`` module, and every public name in one, has a user
outside the tests.

A module that only tests import is code no statement, CLI command,
bench, example or tool runs.  This walks the imports of every Python
file under ``src/repro``, ``benchmarks/``, ``perfbench/``, ``examples/``
and ``tools/`` -- imports inside functions included -- and requires
each non-package ``repro`` module to be imported by a file other than
its own.  A package ``__init__`` re-exporting a name is not a user:
``from repro.core import DBExplorer`` counts for the module that
defines ``DBExplorer``, found by following the package's own imports.

The same holds for each public function, class and method defined
under ``src/repro``: some file of those roots must load its name, read
it as an attribute, import it (outside a package ``__init__``) or
spell it in a string, as ``perfbench/tracing.py`` spells the entry
points it wraps.  An ``__all__`` entry is not a use.  Names are matched
bare, so a method counts as used wherever an attribute of its name is
read.

And each field of a ``*Config`` dataclass under ``src/repro`` is a
setting some caller outside the tests sets: a file of those roots
passes it by keyword to the class's constructor, or to ``replace``,
``with_`` or ``dict`` (the CLI gathers the serve knobs it shares in a
``dict``).  A field nothing sets is a constant spelled as an option.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
USER_ROOTS = ("src/repro", "benchmarks", "perfbench", "examples", "tools")

# Modules that only tests import.  Equality is asserted, so the set can
# only shrink: deleting one of these modules, or giving it a user,
# means removing it here.
TEST_ONLY: Set[str] = set()

# Public functions, classes and methods that only tests use; shrink-only
# like TEST_ONLY.
TEST_ONLY_NAMES = {
    "categorical_names", "concat", "conditional", "edge_strength",
    "evaluated", "facet_values", "fired", "group_count", "hidden_names",
    "incarnations", "index_of", "label_of", "neighbors", "numeric_names",
    "operation_count", "random_subsets", "sample_codes", "selectivity",
    "significant", "to_csv_string", "toggle_phase", "total_counter",
}

# ``Class.field`` settings that only tests set; shrink-only like
# TEST_ONLY.  The labeling oracles sweep LabelingConfig's thresholds;
# the proc tests shorten the supervisor's scans and restart waits and
# exhaust its resubmits.
TEST_ONLY_FIELDS = {
    "LabelingConfig.alpha", "LabelingConfig.max_display",
    "LabelingConfig.min_share",
    "ProcServeConfig.monitor_interval_s", "ProcServeConfig.proc_retries",
    "ProcServeConfig.restart_backoff_base_s",
}

# Callees that set a field by keyword without naming the class.
_COPIERS = ("replace", "with_", "dict")


def _module_files() -> Dict[str, Path]:
    """Dotted name -> file for every module and package under ``repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _module_files()
PACKAGES = {n for n, p in MODULES.items() if p.name == "__init__.py"}


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _base(node: ast.ImportFrom, path: Path) -> str:
    """The absolute module a ``from ... import`` in ``path`` names."""
    if not node.level:
        return node.module or ""
    if SRC not in path.parents:
        return ""  # a script's sibling import, not ``repro``
    package = path.relative_to(SRC).parts[: -node.level]
    return ".".join(package + ((node.module,) if node.module else ()))


def _definer(module: str, name: str) -> Optional[str]:
    """The module ``from module import name`` reaches."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module not in PACKAGES:
        return module if module in MODULES else None
    init = MODULES[module]
    for node in _tree(init).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _definer(_base(node, init), alias.name)
    return module  # defined in the package itself


def _imported(path: Path) -> Iterator[str]:
    """Every ``repro`` module the file at ``path`` imports."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, path)
            if base.split(".")[0] == "repro":
                for alias in node.names:
                    found = _definer(base, alias.name)
                    if found is not None:
                        yield found


def _reached() -> Set[str]:
    """Modules a file outside ``tests/`` imports, their own file aside."""
    reached = set()
    for root in USER_ROOTS:
        for path in (REPO / root).rglob("*.py"):
            if path.name == "__init__.py":
                continue  # a re-export is not a use
            reached.update(
                name for name in _imported(path) if MODULES[name] != path
            )
    return reached


def _used_names(path: Path) -> Iterator[str]:
    """Every name the file at ``path`` loads, reads, imports or spells."""
    tree = _tree(path)
    exported = {
        id(node)
        for assign in ast.walk(tree)
        if isinstance(assign, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in assign.targets)
        for node in ast.walk(assign.value)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            yield node.value


def test_every_module_has_a_user_outside_tests():
    reached = _reached()
    unused = {
        name for name in MODULES
        if name not in PACKAGES and name not in reached
        and not name.endswith("__main__")  # run by ``python -m``
    }
    assert unused == TEST_ONLY, (
        f"imported only by tests: {sorted(unused - TEST_ONLY)}; "
        f"no longer test-only: {sorted(TEST_ONLY - unused)}"
    )


def test_every_public_name_has_a_user_outside_tests():
    defined = {
        node.name
        for path in MODULES.values()
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not node.name.startswith("_")
    }
    used = set()
    for root in USER_ROOTS:
        for path in (REPO / root).rglob("*.py"):
            used.update(_used_names(path))
    unused = defined - used
    assert unused == TEST_ONLY_NAMES, (
        f"used only by tests: {sorted(unused - TEST_ONLY_NAMES)}; "
        f"no longer test-only: {sorted(TEST_ONLY_NAMES - unused)}"
    )


def _config_fields() -> Dict[str, Set[str]]:
    """Class name -> field names of every ``*Config`` dataclass."""
    out = {}
    for path in MODULES.values():
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")):
                continue
            decorators = [
                d.func if isinstance(d, ast.Call) else d
                for d in node.decorator_list
            ]
            if any(isinstance(d, ast.Name) and d.id == "dataclass"
                   for d in decorators):
                out[node.name] = {
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                }
    return out


def _keywords(path: Path) -> Iterator[Tuple[str, str]]:
    """(callee name, keyword) for every keyword argument in the file."""
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        else:
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                yield callee, kw.arg


def test_every_config_field_is_set_outside_tests():
    passed = {
        pair
        for root in USER_ROOTS
        for path in (REPO / root).rglob("*.py")
        for pair in _keywords(path)
    }
    copied = {kw for callee, kw in passed if callee in _COPIERS}
    unset = {
        f"{cls}.{name}"
        for cls, names in _config_fields().items()
        for name in names
        if (cls, name) not in passed and name not in copied
    }
    assert unset == TEST_ONLY_FIELDS, (
        f"set only by tests: {sorted(unset - TEST_ONLY_FIELDS)}; "
        f"no longer test-only: {sorted(TEST_ONLY_FIELDS - unset)}"
    )
