"""The traced benchmark run's entry points still exist.

``perfbench/tracer.py`` wraps the public entry point of every layer by
module and attribute name. A rename or a move would make the traced
run fail only when it is started, so installing and removing the
tracer here checks that every name still resolves.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    owner_name, _, leaf = attribute.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        return owner.__dict__[leaf]
    return getattr(owner, leaf)


def test_tracer_installs_and_uninstalls_every_entry_point():
    tracer_module = _load_tracer()
    entry_points = tracer_module.ENTRY_POINTS
    assert len(entry_points) == 24
    originals = [_resolve(module, attr) for _, module, attr in entry_points]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (_, module, attr), original in zip(entry_points, originals):
            wrapped = _resolve(module, attr)
            assert wrapped is not original, f"{module}.{attr} not wrapped"
            assert wrapped.__perfbench_original__ is original
    finally:
        tracer.uninstall()
    for (_, module, attr), original in zip(entry_points, originals):
        assert _resolve(module, attr) is original, f"{module}.{attr} not restored"

