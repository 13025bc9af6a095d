"""Every module under ``src/repro`` is imported by the program or its tools.

A module that only its own tests import is code no user path runs.  This
check parses (``ast``, nothing is imported) every module of the package
and every file under ``benchmarks/``, ``examples/`` and ``perfbench/``,
and collects what their import statements reach.  Relative imports are
resolved against the importing file's package.  An import made by a
package ``__init__`` is a re-export, not a use: a name imported from a
package counts for the module that defines it, followed through every
``__init__`` on the way.  ``tests/`` is never read.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
TOOL_DIRS = ("benchmarks", "examples", "perfbench")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path, package: str | None) -> list[tuple[str, str | None, str]]:
    """``(module, name, bound)`` per name one file imports: ``name`` is
    ``None`` for ``import module``, ``bound`` is the name the file binds.
    ``package`` anchors relative imports (``None`` outside the package)."""
    found: list[tuple[str, str | None, str]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend(
                (alias.name, None, alias.asname or alias.name) for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if package is None:
                    continue
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.extend(
                (base, alias.name, alias.asname or alias.name) for alias in node.names
            )
    return found


def orphan_modules() -> list[str]:
    """Package modules (``__init__`` and ``__main__`` aside) that no file
    outside ``tests/`` imports, re-exports by a package ``__init__`` aside."""
    modules = {_module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    packages = {name for name, path in modules.items() if path.name == "__init__.py"}
    # Per package: re-exported name -> (module it came from, name there).
    exports = {
        package: {
            bound: (source, name)
            for source, name, bound in _imports(modules[package], package)
            if name is not None
        }
        for package in packages
    }
    used: set[str] = set()

    def reach(module: str, name: str | None) -> None:
        while module in modules:
            if name is not None and f"{module}.{name}" in modules:
                module, name = f"{module}.{name}", None
            used.add(module)
            origin = exports.get(module, {}).get(name)
            if origin is None or origin == (module, name):
                return
            module, name = origin

    importers = [
        (path, name.rpartition(".")[0])
        for name, path in modules.items()
        if name not in packages
    ]
    importers += [
        (path, None)
        for directory in TOOL_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    for path, package in importers:
        for module, name, _ in _imports(path, package):
            reach(module, name)
    return sorted(
        name
        for name, path in modules.items()
        if name not in used and path.stem not in ("__init__", "__main__")
    )


def test_every_module_is_imported_outside_the_tests():
    assert orphan_modules() == []
