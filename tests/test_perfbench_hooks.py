"""The repo benchmark's trace hooks (``perfbench/tracing.py``) wrap program
functions by module and attribute name, so a rename breaks the traced run
and nothing else. Load that file by path, install no wrappers, and check
every name it relies on."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_preload_modules_import(tracing):
    for name in tracing.PRELOAD:
        importlib.import_module(name)


def test_every_target_resolves(tracing):
    missing = []
    for module_name, path, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
            if owner is None:
                missing.append(f"{module_name}.{path}")
                break
    assert missing == []


def test_drain_hook_target_exists():
    from repro.serving.aiohttpd import AsyncGatewayHTTPServer

    assert callable(AsyncGatewayHTTPServer.stop)
