"""The traced end-to-end benchmark's names still resolve.

``benchmarks/e2e/tracer.py`` wraps the functions its ``TARGETS`` and
``LOCAL_TARGETS`` name, by module and attribute, when a traced run
starts; a renamed or moved function fails that run.  These tests load
the tracer as it is and resolve every entry the way its ``install()``
does, without wrapping anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(module_name: str, path: str) -> object:
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        raw = getattr(module, cls_name).__dict__[attr]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(module, path)


def _unresolved(targets) -> list[tuple[str, str]]:
    missing = []
    for module_name, path, __ in targets:
        try:
            target = _resolve(module_name, path)
        except (AttributeError, KeyError, ImportError):
            missing.append((module_name, path))
            continue
        if not callable(target):
            missing.append((module_name, path))
    return missing


def test_every_target_resolves():
    assert tracer.TARGETS
    assert _unresolved(tracer.TARGETS) == []


def test_every_local_target_resolves():
    assert tracer.LOCAL_TARGETS
    assert _unresolved(tracer.LOCAL_TARGETS) == []
