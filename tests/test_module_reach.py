"""Every ``repro`` module has a user outside the tests.

A module that only tests import is code no statement, CLI command,
bench, example or tool runs.  This walks the imports of every Python
file under ``src/repro``, ``benchmarks/``, ``perfbench/``, ``examples/``
and ``tools/`` -- imports inside functions included -- and requires
each non-package ``repro`` module to be imported by a file other than
its own.  A package ``__init__`` re-exporting a name is not a user:
``from repro.core import DBExplorer`` counts for the module that
defines ``DBExplorer``, found by following the package's own imports.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Optional, Set

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
USER_ROOTS = ("src/repro", "benchmarks", "perfbench", "examples", "tools")

# Modules that only tests import.  Equality is asserted, so the set can
# only shrink: deleting one of these modules, or giving it a user,
# means removing it here.
TEST_ONLY = {
    "repro.clustering.model_selection",
    "repro.facets.ranking",
    "repro.query.join",
}


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
