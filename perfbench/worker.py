"""Loopback worker for the ``table1_loopback2`` workload.

Warms up like the in-process workloads (a two-row Table I campaign at
``n_envs=8``), then runs the normal ``repro worker`` command. With
``--totals FILE`` it first installs the layer wrappers of ``perfbench/layers.py`` and, once
the coordinator shuts the worker down, writes their totals to FILE so
the traced run can report worker-side ``rl``, ``airdrop``, ``cluster``
and ``net`` time::

    python3 perfbench/worker.py --warm-up-seed 0 --totals totals.json -- \\
        --connect HOST:PORT --no-cache

Everything after ``--`` is passed to ``repro worker`` unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warm-up-seed", type=int, required=True)
    parser.add_argument("--totals", default=None, metavar="FILE")
    parser.add_argument("worker_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    worker_args = [a for a in args.worker_args if a != "--"]

    from workloads import steady_malloc, warm_up

    steady_malloc()
    from repro.cli import main as repro_main

    warm_up(args.warm_up_seed, n_envs=8)
    if args.totals is None:
        return repro_main(["worker", *worker_args])
    from layers import LayerClock

    clock = LayerClock()
    clock.install()
    try:
        return repro_main(["worker", *worker_args])
    finally:
        clock.uninstall()
        tmp = f"{args.totals}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(clock.totals, handle)
        os.replace(tmp, args.totals)


if __name__ == "__main__":
    sys.exit(main())
