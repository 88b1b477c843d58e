"""The traced benchmark's per-layer timers install over the current code.

``perfbench/layers.py`` wraps methods and functions of the ``repro``
layers where it expects them by name (``PPOAgent.act``,
``AirdropEnv.step``, ``TrialCache.lookup``, ...). A refactor that moves
one of them (to a base class, or to another module) breaks the traced
benchmark run; this test breaks first. It loads ``perfbench/layers.py``
by path and changes nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_of(module_name: str, attr: str):
    """The namespace a ``TARGETS`` entry is wrapped in, and the name there."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(module, cls_name), method
    return module, attr


def test_layer_clock_wraps_every_target_and_restores_every_attribute():
    layers = load_layers()
    for name in layers.PRELOAD:
        importlib.import_module(name)
    targets = [owner_of(*entry) for entries in layers.TARGETS.values() for entry in entries]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    # every namespace install() may write to: the loaded repro modules
    # (rebound function names) and the classes whose methods it wraps
    namespaces = [m for name, m in sorted(sys.modules.items()) if name.startswith("repro")]
    namespaces += [owner for owner, _ in targets if isinstance(owner, type)]
    before = [(namespace, dict(vars(namespace))) for namespace in namespaces]

    clock = layers.LayerClock()
    try:
        clock.install()
        for (owner, attr), original in zip(targets, originals, strict=True):
            wrapper = owner.__dict__[attr]
            assert wrapper is not original, f"{owner.__name__}.{attr} was not wrapped"
            assert wrapper.__wrapped__ is original
    finally:
        clock.uninstall()

    for namespace, snapshot in before:
        now = vars(namespace)
        moved = sorted(key for key, value in snapshot.items() if now.get(key) is not value)
        assert not moved, f"{namespace.__name__}: {moved} not restored"
