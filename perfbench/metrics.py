"""Names, units and definitions of the benchmark's metrics.

``END_TO_END`` and ``PER_LAYER`` must match ``BENCHMARK.json`` at the root
of the repository (``selftest.py`` checks it).  Every workload reports
every metric: a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from tracing import SpanSummary
from workloads import Phase, percentile

#: (name, unit, better).  The end-to-end metrics are generic so that every
#: workload reports each of them; README.md gives each workload's meaning.
#: Both are scaled to the reference host speed (``hostspeed.py``).
#: Latency percentiles are printed with their sample counts but not listed
#: here: on the shared 2-vCPU host they swung further between runs than the
#: largest bound allows (README.md, "End-to-end metrics").
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("ops_s", "1/s", "higher"),
]


class LayerContext:
    """Everything a per-layer metric is computed from."""

    def __init__(
        self, summary: SpanSummary, amounts: Dict[str, float], phase: Phase,
        overhead_ratio: float,
    ) -> None:
        self.summary = summary
        self.amounts = amounts
        self.phase = phase
        self.overhead_ratio = overhead_ratio

    def share(self, *names: str) -> float:
        """Self time of the named spans over the timed client seconds."""
        busy = self.phase.client_s
        return sum(self.summary.self_s.get(name, 0.0) for name in names) / busy if busy else 0.0

    def per_setup(self, name: str) -> float:
        setups = len(self.phase.setups)
        return self.summary.self_s.get(name, 0.0) / setups if setups else 0.0

    def per_call(self, name: str) -> float:
        calls = self.summary.calls.get(name, 0)
        return self.amounts.get(name, 0.0) / calls if calls else 0.0

    def ratio(self, numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0


Metric = Callable[[LayerContext], float]


def _share(*names: str) -> Metric:
    return lambda c: c.share(*names)


def _per_setup(name: str) -> Metric:
    return lambda c: c.per_setup(name)


def _per_call(name: str) -> Metric:
    return lambda c: c.per_call(name)


#: (name, unit, better, definition), grouped by the program's layers.
PER_LAYER: List[Tuple[str, str, str, Metric]] = [
    # system.sharding
    ("sharding.self_share", "share", "lower", _share("sharding.get", "sharding.put")),
    # system.frontend
    ("frontend.self_share", "share", "lower", _share("frontend.get", "frontend.put")),
    ("frontend.queue_wait_p99_ms", "ms", "lower",
     lambda c: percentile([int(v * 1e6) for v in c.summary.queue_wait_ms], 99)),
    # system.service
    ("service.open.self_s", "s", "lower", _per_setup("service.open")),
    ("service.put.self_share", "share", "lower", _share("service.put")),
    ("service.get.self_share", "share", "lower", _share("service.get")),
    ("service.repair.self_share", "share", "lower", _share("service.repair")),
    # codes.entanglement
    ("scheme.encode.self_share", "share", "lower", _share("scheme.encode")),
    ("scheme.repair.self_share", "share", "lower", _share("scheme.repair")),
    ("scheme.read_block.calls", "count", "lower",
     lambda c: c.ratio(c.summary.calls.get("scheme.read_block", 0), c.phase.reps)),
    ("scheme.restore_state.self_s", "s", "lower", _per_setup("scheme.restore_state")),
    # core.encoder
    ("encoder.self_share", "share", "lower", _share("encoder.entangle_batch")),
    ("encoder.mb_s", "MB/s", "higher",
     lambda c: c.ratio(c.amounts.get("encoder.entangle_batch", 0.0) / 1e6,
                       c.summary.total_s.get("encoder.entangle_batch", 0.0))),
    # core.batch_repair
    ("batch_repair.plan.self_share", "share", "lower", _share("batch_repair.plan")),
    ("batch_repair.xor.self_share", "share", "lower", _share("batch_repair.xor")),
    ("batch_repair.targets_per_round", "count", "higher", _per_call("batch_repair.plan")),
    # storage.placement
    ("placement.self_share", "share", "lower", _share("placement.locations_for")),
    ("placement.blocks_per_call", "count", "higher", _per_call("placement.locations_for")),
    # storage.cluster
    ("cluster.open.self_s", "s", "lower", _per_setup("cluster.open")),
    ("cluster.put_many.self_share", "share", "lower", _share("cluster.put_many")),
    ("cluster.try_get_many.self_share", "share", "lower", _share("cluster.try_get_many")),
    ("cluster.try_get_block.self_share", "share", "lower", _share("cluster.try_get_block")),
    ("cluster.relocate_many.self_share", "share", "lower", _share("cluster.relocate_many")),
    ("cluster.unavailable_blocks.self_share", "share", "lower",
     _share("cluster.unavailable_blocks")),
    # storage.block_store
    ("block_store.put_many.self_share", "share", "lower", _share("block_store.put_many")),
    ("block_store.get.self_share", "share", "lower", _share("block_store.get")),
    ("block_store.cache_hit_ratio", "ratio", "higher",
     lambda c: c.ratio(c.phase.counts.get("cache_hits", 0.0),
                       c.phase.counts.get("cache_hits", 0.0)
                       + c.phase.counts.get("cache_misses", 0.0))),
    ("block_store.put_many.calls_per_doc", "count", "lower",
     lambda c: c.ratio(c.summary.calls.get("block_store.put_many", 0),
                       c.phase.counts.get("docs_put", 0.0))),
    # storage.backends
    ("backend.open.self_s", "s", "lower", _per_setup("backend.open")),
    ("backend.put_many.self_share", "share", "lower", _share("backend.put_many")),
    ("backend.get.self_share", "share", "lower", _share("backend.get")),
    ("backend.flush.self_share", "share", "lower", _share("backend.flush")),
    ("backend.bytes_per_user_byte", "ratio", "lower",
     lambda c: c.ratio(c.phase.counts.get("segment_growth", 0.0),
                       c.phase.counts.get("user_bytes", 0.0))),
    # storage.wal
    ("wal.commit.self_share", "share", "lower", _share("wal.commit")),
    ("wal.ops_per_commit", "count", "higher", _per_call("wal.commit")),
    ("wal.replay.self_s", "s", "lower", _per_setup("wal.replay")),
    # simulation.engine
    ("sim.build.self_s", "s", "lower", _per_setup("sim.build")),
    ("sim.run_repair.self_share", "share", "lower", _share("sim.run_repair")),
    ("sim.rounds", "count", "lower", _per_call("sim.run_repair")),
    # the trace itself
    ("trace.uncovered_share", "share", "lower",
     lambda c: max(0.0, 1.0 - c.ratio(c.summary.root_s, c.phase.client_s))),
    ("trace.overhead_ratio", "ratio", "lower", lambda c: c.overhead_ratio),
]

#: Largest share of a storage workload's timed wall time that may lie
#: outside every span before the traced run fails.
MAX_UNCOVERED_SHARE = 0.10


def layer_metrics(context: LayerContext) -> Dict[str, Tuple[float, str]]:
    return {name: (float(metric(context)), unit) for name, unit, _, metric in PER_LAYER}
