"""The hazard catalogue (``repro.analysis.hazards``) pinned as tables.

Every lint rule that judges a call reads it here, so these tables are
the single statement of what counts as a blocking call, whether it is
bounded, and what an import-resolved name makes of a call.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.analysis import hazards

NO_IMPORTS = hazards.ImportTable({})


def first_wait_is_bounded(source: str) -> bool:
    """Whether the first blocking call in ``source`` is bounded, with the
    socket deadline that the calls before it armed."""
    tree = ast.parse(textwrap.dedent(source))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for call, armed in hazards.armed_deadlines(calls):
        target = hazards.call_target(call, NO_IMPORTS)
        if hazards.blocking_kind(target) is not None:
            return hazards.bounded(call, target, armed)
    raise AssertionError(f"no blocking call in {source!r}")


@pytest.mark.parametrize(
    "source, is_bounded",
    [
        pytest.param("q.get(timeout=None)", False, id="get-timeout-None"),
        pytest.param("q.get(timeout=0.5)", True, id="get-timeout"),
        pytest.param("q.get(block=True)", False, id="get-block-True"),
        pytest.param("q.get(block=False)", True, id="get-block-False"),
        pytest.param("q.get(False)", True, id="get-positional-False"),
        pytest.param("ev.wait(None)", False, id="wait-None"),
        pytest.param("ev.wait(0.5)", True, id="wait-positional"),
        pytest.param("t.join(None)", False, id="join-None"),
        pytest.param("lock.acquire(True)", False, id="acquire-True"),
        pytest.param("lock.acquire(False)", True, id="acquire-False"),
        pytest.param("lock.acquire(blocking=False)", True, id="acquire-blocking-False"),
        pytest.param("create_connection(addr, None)", False, id="dial-None"),
        pytest.param("create_connection(addr, 5.0)", True, id="dial-positional"),
        pytest.param(
            """
            sock.settimeout(1.0)
            sock.recv(16)
            """,
            True,
            id="recv-after-settimeout",
        ),
        pytest.param(
            """
            sock.settimeout(1.0)
            sock.settimeout(None)
            sock.recv(16)
            """,
            False,
            id="recv-after-settimeout-None",
        ),
        pytest.param(
            """
            sock.recv(16)
            sock.settimeout(1.0)
            """,
            False,
            id="recv-before-settimeout",
        ),
    ],
)
def test_bound_rule(source, is_bounded):
    assert first_wait_is_bounded(source) is is_bounded


@pytest.mark.parametrize(
    "target, kind",
    [
        ("sock.recv_into", hazards.SOCKET_READ),
        ("listener.accept", hazards.SOCKET_READ),
        ("sock.sendall", hazards.SOCKET_WRITE),
        ("socket.create_connection", hazards.DIAL),
        ("self._reconnect", hazards.DIAL),
        ("time.sleep", hazards.SLEEP),
        ("lock.acquire", hazards.PARK),
        ("<expr>.join", hazards.PARK),
        ("q.put", hazards.QUEUE),
        ("subprocess.check_output", hazards.SUBPROCESS),
        ("runner.run", None),
        ("sock.settimeout", None),
    ],
)
def test_blocking_kind(target, kind):
    assert hazards.blocking_kind(target) == kind


RESOLVING_MODULE = """
import numpy as np
import hashlib as hl
from time import perf_counter as clock
from .sibling import helper
from ..parent import other as renamed
"""


def test_import_table_resolves_aliases_and_relative_imports():
    table = hazards.ImportTable.build(ast.parse(RESOLVING_MODULE), "pkg.sub.mod")
    assert table.resolve("np.random.default_rng") == "numpy.random.default_rng"
    assert table.resolve("hl.sha256") == "hashlib.sha256"
    assert table.resolve("clock") == "time.perf_counter"
    assert table.resolve("helper") == "pkg.sub.sibling.helper"
    assert table.resolve("renamed.attr") == "pkg.parent.other.attr"
    assert table.resolve("unbound.name") == "unbound.name"


def test_determinism_hazards_read_resolved_names():
    table = hazards.ImportTable.build(ast.parse(RESOLVING_MODULE), "pkg.sub.mod")
    tree = ast.parse("np.random.rand(3); np.random.default_rng(0); clock(); hl.md5()")
    assert [(s.name, s.kind) for s in hazards.rng_draws(tree, table)] == [
        ("np.random.rand", hazards.NUMPY_GLOBAL)
    ]
    assert [s.target for s in hazards.clock_reads(tree, table)] == ["time.perf_counter"]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    digests = [hazards.call_target(c, table) for c in calls]
    assert [t for t in digests if hazards.is_digest(t)] == ["hashlib.md5"]
