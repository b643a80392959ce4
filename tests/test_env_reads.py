"""Only two modules of ``src/repro`` read the process environment.

An environment variable read deep in the library is a process-global
mode: it selects behaviour for every caller in the process, server
tenants included, and doubles the configurations the tests must cover.
The two readers left are the root execution scope's kernel backend
(``runtime/execution.py``, ``REPRO_KERNEL_BACKEND``, read once per
process) and crash-point fault injection (``runtime/faults.py``,
``REPRO_CRASH_POINT``).  A new reader has to be added to the set below
on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            return True
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in _ENV_NAMES for alias in node.names)
        ):
            return True
    return False


def test_environment_readers_are_exactly_the_known_two():
    readers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _reads_environment(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert readers == {"runtime/faults.py", "runtime/execution.py"}
