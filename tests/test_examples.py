"""The examples still run: each is loaded by path and called small."""

from __future__ import annotations

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classic_control_trains_cartpole_and_pendulum(capsys):
    # the only caller outside the tests of the categorical PPO head
    example = load_example("classic_control")
    example.train_cartpole(total_steps=300)
    example.train_pendulum(total_steps=400)
    out = capsys.readouterr().out
    assert "steps   1024: mean episode length" in out
    assert "deterministic eval" in out
    assert "virtual time on the testbed" in out
