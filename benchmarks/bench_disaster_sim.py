"""Scheme-agnostic disaster-simulation engine: throughput across scheme families.

Reports disaster events/sec and simulated blocks/sec of
:class:`~repro.simulation.engine.SimulationEngine` over full block
populations (``REPRO_BENCH_BLOCKS``, capped at 200,000) and gates them far
below any byte-level simulation.  The engine's fixed-seed metrics are pinned
by the ``GOLDEN`` table in ``tests/test_engine.py``.
"""

from __future__ import annotations

import time

from repro.simulation.engine import SimulationEngine
from repro.simulation.experiments import ExperimentConfig, sample_disaster
from repro.simulation.metrics import format_table

from conftest import bench_blocks

FRACTIONS = (0.10, 0.30, 0.50)


def test_engine_throughput(print_tables):
    """Events/sec and blocks/sec of the engine across scheme families."""
    blocks = min(bench_blocks(), 200_000)
    rows = []
    for scheme_id in ("ae-3-2-5", "rs-10-4", "rep-3", "lrc-azure", "xor-geo"):
        engine = SimulationEngine(scheme_id, blocks, 100, seed=7)
        started = time.perf_counter()
        events = 0
        for offset, fraction in enumerate(FRACTIONS):
            engine.run_disaster(
                sample_disaster(ExperimentConfig(data_blocks=blocks), fraction, offset)
            )
            events += 1
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "scheme": engine.scheme_name,
                "blocks": blocks,
                "events/sec": round(events / elapsed, 2),
                "blocks/sec": int(events * blocks / elapsed),
            }
        )
        # The availability-only engine must stay far above any byte-level
        # simulation: at least one full-population disaster per 30 s.
        assert events / elapsed > 0.1
    if print_tables:
        print("\nEngine throughput (disaster events over full populations)\n" + format_table(rows))
