"""``repro`` runs on the standard library alone.

The README promises zero runtime dependencies.  A fresh interpreter
imports ``repro`` and then every module under ``src/repro``; each module
that appears must belong to ``repro`` or to the standard library
(``sys.stdlib_module_names``).  An optional import that merely can
succeed (``try: import some_package``) fails the check too: it loads the
package, and pays its import time and memory, on every machine that has
it installed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the top-level names of the modules the imports added.  A name
# bound to a module that was already loaded is an alias, not a new
# module (``multiprocessing`` registers ``__main__`` as ``__mp_main__``).
_SCRIPT = """
import importlib, json, sys
loaded = {id(module) for module in sys.modules.values()}
import repro
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
print(json.dumps(sorted({
    name.partition(".")[0]
    for name, module in list(sys.modules.items())
    if id(module) not in loaded
})))
"""


def _package_modules() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def test_importing_every_module_loads_only_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(_package_modules())],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    added = json.loads(completed.stdout)
    assert "repro" in added
    assert [
        name
        for name in added
        if name != "repro" and name not in sys.stdlib_module_names
    ] == []
