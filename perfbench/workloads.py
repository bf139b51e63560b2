"""The four workloads of the archive benchmark.

Every workload builds its input once per invocation (untimed), then runs
repetitions until the run's measuring time is used up.  A storage
repetition works on a fresh copy of the pre-built archive, so appends and
repairs never carry over from one repetition to the next, and its set-up
is the reopen of that copy.  All load comes from this process, closed
loop: each client waits for its reply before sending the next request.

Shared storage set-up: scheme ``ae-3-2-5`` with 4 KiB blocks, topology
``sites=4,racks=2,nodes=4`` (32 locations) with ``spread-domains``
placement, the ``segment`` backend and the metadata WAL, flush policy
``fsync=False``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError, ServiceOverloadedError
from repro.simulation.engine import SimulationEngine, sample_disaster_locations, simulate_disasters
from repro.system.service import StorageConfig, StorageService
from repro.system.sharding import ShardedStorageService

from hostspeed import SpeedSampler, host_factor
from tracing import Tracer

SCHEME = "ae-3-2-5"
BLOCK_SIZE = 4096
TOPOLOGY = "sites=4,racks=2,nodes=4"
PLACEMENT = "spread-domains"
BACKEND = "segment"
FSYNC = False
DISASTER_TARGET = "site:0"

#: Fig. 11 disaster sizes, run with FULL maintenance (the engine default).
FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5)
SIM_LOCATIONS = 100
#: Engine constructions per ``simulate`` repetition; ``setup_s`` is their
#: trimmed mean.
SIM_SETUPS_PER_REP = 3

#: Fixed-seed sweep whose rows are recorded in ``reference/``.
REFERENCE_SEED = 7
REFERENCE_BLOCKS = 20_000
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "simulate.json")

#: Distinct payload rows drawn per workload; every block of every document
#: additionally carries its own (document, block) tag, so a read that
#: returns another document's bytes or another block's bytes never matches.
PAYLOAD_POOL = 64

SERVE_CLIENTS = 2
SERVE_PUT_SHARE = 0.1
INGEST_WARM_PUTS = 8


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, smaller ones self-test it."""

    ingest_base_docs: int = 256
    ingest_docs_per_rep: int = 1024
    ingest_doc_bytes: int = 64 * 1024
    disaster_docs: int = 1024
    disaster_doc_bytes: int = 64 * 1024
    serve_docs: int = 2000
    serve_doc_bytes: int = 4096
    serve_rep_seconds: float = 1.5
    sim_blocks: int = 1_000_000


TINY = Sizes(
    ingest_base_docs=8,
    ingest_docs_per_rep=24,
    ingest_doc_bytes=16 * 1024,
    disaster_docs=48,
    disaster_doc_bytes=16 * 1024,
    serve_docs=64,
    serve_rep_seconds=0.3,
    sim_blocks=20_000,
)


def storage_config(data_dir: str, shards: Optional[int] = None) -> StorageConfig:
    return StorageConfig(
        scheme=SCHEME,
        block_size=BLOCK_SIZE,
        topology=TOPOLOGY,
        placement=PLACEMENT,
        backend=BACKEND,
        data_dir=data_dir,
        fsync=FSYNC,
        wal=True,
        shards=shards,
    )


class Payloads:
    """Deterministic document contents derived from the workload seed."""

    def __init__(self, seed: int, salt: int, size: int) -> None:
        if size % BLOCK_SIZE:
            raise ValueError("document sizes are whole blocks")
        rng = np.random.default_rng([seed, salt])
        self._pool = rng.integers(0, 256, size=(PAYLOAD_POOL, size), dtype=np.uint8)
        self._blocks = np.arange(size // BLOCK_SIZE, dtype=np.uint64)

    def __call__(self, index: int) -> bytes:
        row = self._pool[index % PAYLOAD_POOL].copy()
        tags = ((np.uint64(index) << np.uint64(20)) | self._blocks).astype(">u8")
        row.reshape(-1, BLOCK_SIZE)[:, :8] = tags.view(np.uint8).reshape(-1, 8)
        return row.tobytes()


class Phase:
    """What one measuring phase observed: samples, counters and failures."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.setups: List[float] = []
        self.latencies: Dict[str, List[int]] = {}
        self.counts: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Timed seconds summed over client threads: the base of every
        #: per-layer share and of the traced run's coverage check.
        self.client_s = 0.0
        self.reps = 0
        #: One dict of rates per repetition, with its ``host_factor``; a run
        #: reports their trimmed mean.
        self.rep_rates: List[Dict[str, float]] = []
        self.speed = SpeedSampler()
        self._current: Dict[str, float] = {}
        self._rep_setups: List[float] = []
        self._marks: Dict[str, int] = {}

    def timed(self, fn: Callable, *args: object, **kwargs: object) -> Tuple[object, int]:
        """Call ``fn`` as one request; returns its result and duration in ns.

        The tracer, when present, records spans only inside these windows.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op()
            tracer.enabled = True
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.enabled = False
            self.client_s += elapsed / 1e9
        self.speed.work(elapsed)
        return result, elapsed

    def timed_setup(self, fn: Callable, *args: object, **kwargs: object) -> object:
        """Call ``fn`` as one set-up."""
        result, ns = self.timed(fn, *args, **kwargs)
        self.setups.append(ns / 1e9)
        self._rep_setups.append(ns / 1e9)
        return result

    def sample(self, kind: str, ns: int) -> None:
        self.latencies.setdefault(kind, []).append(ns)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def merge_stores(
        self, before: Tuple[int, int], after: Tuple[int, int], kind: str = ""
    ) -> None:
        """Count the cache hits and misses between two readings of the counters.

        With ``kind``, they are also counted as ``<kind>_cache_hits`` and
        ``<kind>_cache_misses``.
        """
        prefixes = ["", f"{kind}_"] if kind else [""]
        for prefix in prefixes:
            self.add(f"{prefix}cache_hits", after[0] - before[0])
            self.add(f"{prefix}cache_misses", after[1] - before[1])

    def hit_ratio(self, kind: str = "") -> float:
        prefix = f"{kind}_" if kind else ""
        hits = self.counts.get(f"{prefix}cache_hits", 0.0)
        total = hits + self.counts.get(f"{prefix}cache_misses", 0.0)
        return hits / total if total else 0.0

    def record(self, **rates: float) -> None:
        """Rates the current repetition measured."""
        self._current.update(rates)

    def begin_rep(self) -> None:
        self._current = {}
        self._rep_setups = []
        self._marks = {kind: len(samples) for kind, samples in self.latencies.items()}
        self.speed.take()

    def end_rep(self, kinds: Tuple[str, ...]) -> None:
        """Close a repetition: the percentiles of its own latency samples of
        each kind become rates ``<kind>_p50_ms`` and ``<kind>_p99_ms``, the
        mean of its set-ups ``setup_s``, and its host-speed passes its
        ``host_factor`` (unless the workload recorded one)."""
        rates = self._current
        for kind in kinds:
            samples = self.latencies.get(kind, [])[self._marks.get(kind, 0):]
            if samples:
                rates[f"{kind}_p50_ms"] = percentile(samples, 50)
                rates[f"{kind}_p99_ms"] = percentile(samples, 99)
        if self._rep_setups:
            rates["setup_s"] = float(np.mean(self._rep_setups))
        rates.setdefault("host_factor", host_factor(self.speed.take()))
        self.rep_rates.append(rates)
        self.reps += 1

    def rate(self, key: str) -> float:
        """Trimmed mean (see :func:`central`) over repetitions of one
        per-repetition rate."""
        return central([rates[key] for rates in self.rep_rates if key in rates])

    def scaled(self, key: str, elasticity: float) -> float:
        """:meth:`rate` at the reference host speed: each repetition's value
        times its ``host_factor`` to the power ``elasticity`` (divide by it
        for a time, with a negative ``elasticity``)."""
        return central([
            rates[key] * rates["host_factor"] ** elasticity
            for rates in self.rep_rates if key in rates
        ])


def percentile(values: List[int], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of integer ns samples, in ms."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1] / 1e6


def central(values: List[float]) -> float:
    """Mean of ``values`` without their lowest and highest (from three on).

    The host's speed drifts by tens of percent within seconds.  A median
    of a few repetitions snaps to whichever speed held most of them; this
    trimmed mean moves smoothly with the share of time spent at each speed
    and still ignores one outlying repetition at either end.
    """
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return float(np.mean(ordered)) if ordered else 0.0


def tree_bytes(root: str, only: Optional[str] = None) -> int:
    """Bytes under ``root``; with ``only``, just files inside directories of that name."""
    total = 0
    for directory, _, files in os.walk(root):
        if only is not None and os.path.basename(directory) != only:
            continue
        total += sum(os.path.getsize(os.path.join(directory, name)) for name in files)
    return total


def cache_counters(services: List[StorageService]) -> Tuple[int, int]:
    hits = misses = 0
    for service in services:
        for store in service.cluster.locations():
            hits += store.cache_hits
            misses += store.cache_misses
    return hits, misses


def sealed_segments(root: str) -> List[str]:
    """Every segment file under ``root`` except the newest of its directory."""
    sealed: List[str] = []
    for directory, _, files in os.walk(root):
        if os.path.basename(directory) == "segments":
            segments = sorted(f for f in files if f.startswith("seg-") and f.endswith(".log"))
            sealed.extend(os.path.join(directory, name) for name in segments[:-1])
    return sealed


def _signature(path: str) -> Tuple[int, int]:
    status = os.stat(path)
    return status.st_size, status.st_mtime_ns


class Workload:
    """A workload: an untimed build, then repetitions until time is up."""

    name = ""
    #: Storage workloads must have 90% of their timed wall time under spans.
    storage = True
    #: Latency samples behind the workload's own p50/p99 metrics: percentiles
    #: are taken per repetition, and the run reports their trimmed mean.
    latency_kinds: Tuple[str, ...] = ()
    #: Share of the host's slowdown the workload feels: the slope of log
    #: ``ops_s`` on log ``host_factor`` over its repetitions on the
    #: reference host (see ``hostspeed.py``).
    host_elasticity = 0.0

    def __init__(self, seed: int, work_dir: str, sizes: Sizes) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.sizes = sizes
        self._copies = 0
        self._sealed: Optional[Dict[str, Tuple[int, int]]] = None

    def build(self) -> None:
        """Make the workload's input (untimed)."""

    def repetition(self, phase: Phase) -> None:
        raise NotImplementedError

    def fresh_copy(self, fixture: str) -> str:
        """A private copy of the pre-built archive for one repetition.

        Sealed segment files (all of a location's segments but the newest,
        the only one the program appends to) are hard-linked, not copied:
        a repetition then shares their page-cache pages instead of filling
        fresh memory with data it only reads.  :meth:`release_copy` checks
        that no linked file changed.
        """
        if self._sealed is None:
            self._sealed = {path: _signature(path) for path in sealed_segments(fixture)}
        self._copies += 1
        target = os.path.join(self.work_dir, f"rep-{self._copies:04d}")
        sealed = self._sealed

        def copy(source: str, destination: str) -> None:
            if source in sealed:
                os.link(source, destination)
            else:
                shutil.copy2(source, destination)

        shutil.copytree(fixture, target, copy_function=copy)
        return target

    def release_copy(self, data_dir: str, phase: Phase) -> None:
        shutil.rmtree(data_dir)
        for path, signature in (self._sealed or {}).items():
            if _signature(path) != signature:
                phase.problems.append(f"a repetition modified the sealed segment {path}")
                return

    def ops_s(self, phase: Phase) -> float:
        return phase.scaled("ops_s", self.host_elasticity)

    def end_to_end(self, phase: Phase) -> Dict[str, float]:
        """The gated metrics, scaled to the reference host speed."""
        return {
            "setup_s": phase.scaled("setup_s", -self.host_elasticity),
            "ops_s": self.ops_s(phase),
        }

    def host_named(self, phase: Phase) -> List[Tuple[str, float, str, int]]:
        """The raw readings behind the gated metrics, and the host factor."""
        return [
            ("setup_s_raw", phase.rate("setup_s"), "s", len(phase.setups)),
            ("ops_s_raw", phase.rate("ops_s"), "1/s", phase.reps),
            ("host_factor", central([r["host_factor"] for r in phase.rep_rates]),
             "ratio", phase.reps),
        ]

    def named(self, phase: Phase) -> List[Tuple[str, float, str, int]]:
        """The workload's own metrics: (name, value, unit, sample count)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
class Ingest(Workload):
    """One client puts 64 KiB documents into a warm, pre-built archive."""

    name = "ingest"
    latency_kinds = ("put",)
    host_elasticity = 0.57

    def build(self) -> None:
        sizes = self.sizes
        self.payloads = Payloads(self.seed, 1, sizes.ingest_doc_bytes)
        self.fixture = os.path.join(self.work_dir, "fixture")
        with StorageService.open(storage_config(self.fixture)) as service:
            for index in range(sizes.ingest_base_docs):
                service.put(f"base-{index:06d}", self.payloads(index))
        self.next_index = sizes.ingest_base_docs

    def repetition(self, phase: Phase) -> None:
        sizes = self.sizes
        data_dir = self.fresh_copy(self.fixture)
        service = phase.timed_setup(StorageService.open, storage_config(data_dir))
        try:
            for _ in range(INGEST_WARM_PUTS):
                service.put(f"warm-{self.next_index:06d}", self.payloads(self.next_index))
                self.next_index += 1
            expected_docs = len(service.documents) + sizes.ingest_docs_per_rep
            first = self.next_index
            self.next_index += sizes.ingest_docs_per_rep
            indexes = range(first, self.next_index)
            dir_before = tree_bytes(data_dir)
            segments_before = tree_bytes(data_dir, only="segments")
            busy = stored = puts = 0
            for index in indexes:
                name, data = f"doc-{index:07d}", self.payloads(index)
                phase.attempted += 1
                try:
                    _, ns = phase.timed(service.put, name, data)
                except ReproError as exc:
                    phase.failed += 1
                    phase.problems.append(f"put {name}: {exc!r}")
                    continue
                phase.sample("put", ns)
                busy += ns
                stored += len(data)
                puts += 1
            phase.add("docs_put", puts)
            phase.add("user_bytes", stored)
            if busy:
                phase.record(ops_s=puts / (busy / 1e9), put_mb_s=stored / 1e6 / (busy / 1e9))
            phase.add("dir_growth", tree_bytes(data_dir) - dir_before)
            phase.add("segment_growth", tree_bytes(data_dir, only="segments") - segments_before)
            # Read back every document of the repetition (untimed).
            for index in indexes:
                name = f"doc-{index:07d}"
                if service.get(name) != self.payloads(index):
                    phase.problems.append(f"ingest: {name} reads back wrong bytes")
            if len(service.documents) != expected_docs:
                phase.problems.append(
                    f"ingest: {len(service.documents)} documents, expected {expected_docs}"
                )
        finally:
            service.close()
            self.release_copy(data_dir, phase)

    def named(self, phase: Phase) -> List[Tuple[str, float, str, int]]:
        lat = phase.latencies.get("put", [])
        user = phase.counts.get("user_bytes", 0.0)
        return [
            ("put_mb_s", phase.rate("put_mb_s"), "MB/s", phase.reps),
            ("put_p50_ms", phase.rate("put_p50_ms"), "ms", len(lat)),
            ("put_p99_ms", phase.rate("put_p99_ms"), "ms", len(lat)),
            ("space_amp", phase.counts.get("dir_growth", 0.0) / user if user else 0.0,
             "ratio", len(lat)),
        ]


# ----------------------------------------------------------------------
# site-disaster
# ----------------------------------------------------------------------
class SiteDisaster(Workload):
    """Cold reads, a whole-site failure, degraded reads, one repair, re-reads."""

    name = "site-disaster"
    latency_kinds = ("degraded",)
    host_elasticity = 0.65

    def build(self) -> None:
        self.payloads = Payloads(self.seed, 2, self.sizes.disaster_doc_bytes)
        self.fixture = os.path.join(self.work_dir, "fixture")
        with StorageService.open(storage_config(self.fixture)) as service:
            for index in range(self.sizes.disaster_docs):
                service.put(f"doc-{index:06d}", self.payloads(index))

    def reopen(self, phase: Phase, data_dir: str) -> StorageService:
        """Open the archive in ``data_dir``, timed as one set-up."""
        service = phase.timed_setup(StorageService.open, storage_config(data_dir))
        if len(service.documents) != self.sizes.disaster_docs:
            phase.problems.append("site-disaster: reopened catalogue is incomplete")
        return service  # type: ignore[return-value]

    def read_pass(self, phase: Phase, service: StorageService, kind: str) -> Tuple[int, int]:
        """Read and check every document; returns (documents read, busy ns)."""
        reads = busy = 0
        before = cache_counters([service])
        for index in range(self.sizes.disaster_docs):
            name = f"doc-{index:06d}"
            phase.attempted += 1
            try:
                data, ns = phase.timed(service.get, name)
            except ReproError as exc:
                phase.failed += 1
                phase.problems.append(f"{kind} get {name}: {exc!r}")
                continue
            if data != self.payloads(index):
                phase.problems.append(f"{kind} get {name} returned wrong bytes")
            phase.sample(kind, ns)
            reads += 1
            busy += ns
        phase.merge_stores(before, cache_counters([service]), kind)
        return reads, busy

    def repetition(self, phase: Phase) -> None:
        data_dir = self.fresh_copy(self.fixture)
        service: Optional[StorageService] = None
        try:
            service = self.reopen(phase, data_dir)
            cold = self.read_pass(phase, service, "cold")
            # The cold pass leaves every data block it read in the caches;
            # a reopen empties them, so the degraded pass reads cold too.
            service.close()
            service = None
            service = self.reopen(phase, data_dir)
            service.fail_locations(service.topology.locations_for_target(DISASTER_TARGET))
            degraded = self.read_pass(phase, service, "degraded")
            phase.attempted += 1
            before = cache_counters([service])
            try:
                report, repair_ns = phase.timed(service.repair)
            except ReproError as exc:
                phase.failed += 1
                phase.problems.append(f"repair: {exc!r}")
                return
            phase.merge_stores(before, cache_counters([service]), "repair")
            phase.add("repaired", report.repaired_count)
            phase.add("repair_reads", report.blocks_read)
            if report.data_loss or report.unrecovered or not report.repaired_count:
                phase.problems.append(f"repair lost data: {report.summary()}")
            verify = self.read_pass(phase, service, "verify")
            doc_mb = self.sizes.disaster_doc_bytes / 1e6
            busy_s = (cold[1] + degraded[1] + repair_ns + verify[1]) / 1e9
            if cold[1] and degraded[1] and repair_ns:
                phase.record(
                    ops_s=(cold[0] + degraded[0] + verify[0]) / busy_s,
                    cold_get_mb_s=cold[0] * doc_mb / (cold[1] / 1e9),
                    degraded_get_mb_s=degraded[0] * doc_mb / (degraded[1] / 1e9),
                    repair_blocks_s=report.repaired_count / (repair_ns / 1e9),
                )
        finally:
            if service is not None:
                service.close()
            self.release_copy(data_dir, phase)

    def named(self, phase: Phase) -> List[Tuple[str, float, str, int]]:
        degraded = phase.latencies.get("degraded", [])
        repaired = phase.counts.get("repaired", 0.0)
        reads = len(phase.latencies.get("cold", []))
        return [
            ("cold_get_mb_s", phase.rate("cold_get_mb_s"), "MB/s", phase.reps),
            ("degraded_get_mb_s", phase.rate("degraded_get_mb_s"), "MB/s", phase.reps),
            ("degraded_get_p50_ms", phase.rate("degraded_p50_ms"), "ms", len(degraded)),
            ("degraded_get_p99_ms", phase.rate("degraded_p99_ms"), "ms", len(degraded)),
            ("repair_blocks_s", phase.rate("repair_blocks_s"), "1/s", phase.reps),
            ("repair_reads_per_block",
             phase.counts.get("repair_reads", 0.0) / repaired if repaired else 0.0,
             "ratio", phase.reps),
            ("cold_cache_hit_ratio", phase.hit_ratio("cold"), "ratio", reads),
            ("degraded_cache_hit_ratio", phase.hit_ratio("degraded"), "ratio", len(degraded)),
            ("repair_cache_hit_ratio", phase.hit_ratio("repair"), "ratio", phase.reps),
            ("verify_cache_hit_ratio", phase.hit_ratio("verify"), "ratio",
             len(phase.latencies.get("verify", []))),
        ]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ClientLog:
    """What one serve client did during a repetition."""

    gets: List[int] = dataclasses.field(default_factory=list)
    puts: List[int] = dataclasses.field(default_factory=list)
    written: List[Tuple[str, int]] = dataclasses.field(default_factory=list)
    problems: List[str] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    speed: SpeedSampler = dataclasses.field(default_factory=SpeedSampler)


class Serve(Workload):
    """Two closed-loop clients, 90% get / 10% put of 4 KiB documents, 2 shards."""

    name = "serve"
    latency_kinds = ("get", "put")
    host_elasticity = 0.63

    def build(self) -> None:
        sizes = self.sizes
        payloads = Payloads(self.seed, 3, sizes.serve_doc_bytes)
        self.resident = [payloads(index) for index in range(sizes.serve_docs)]
        self.fixture = os.path.join(self.work_dir, "fixture")
        federation = ShardedStorageService.open(storage_config(self.fixture, shards=2))
        try:
            for index, data in enumerate(self.resident):
                federation.put(f"doc-{index:06d}", data)
        finally:
            federation.close()

    def client(
        self,
        federation: ShardedStorageService,
        rng: random.Random,
        deadline: float,
        prefix: str,
        tracer: Optional[Tracer],
        log: ClientLog,
    ) -> None:
        clock = time.perf_counter_ns
        resident = self.resident
        try:
            while time.perf_counter() < deadline:
                log.attempted += 1
                if tracer is not None:
                    tracer.begin_op()
                index = rng.randrange(len(resident))
                try:
                    if rng.random() < SERVE_PUT_SHARE:
                        name = f"{prefix}-{log.attempted:07d}"
                        start = clock()
                        federation.put(name, resident[index])
                        elapsed = clock() - start
                        log.puts.append(elapsed)
                        log.written.append((name, index))
                    else:
                        start = clock()
                        data = federation.get(f"doc-{index:06d}")
                        elapsed = clock() - start
                        log.gets.append(elapsed)
                        if data != resident[index]:
                            log.problems.append(f"serve get doc-{index:06d} returned wrong bytes")
                    log.speed.work(elapsed)
                except ServiceOverloadedError:  # refused: counts as failed, not as wrong
                    log.failed += 1
                except ReproError as exc:
                    log.failed += 1
                    log.problems.append(f"serve request failed: {exc!r}")
        except Exception as exc:  # noqa: BLE001 - a client must report, not vanish
            log.problems.append(f"serve client crashed: {exc!r}")

    def repetition(self, phase: Phase) -> None:
        data_dir = self.fresh_copy(self.fixture)
        federation = phase.timed_setup(
            ShardedStorageService.open, storage_config(data_dir, shards=2)
        )
        try:
            services = [federation.shard(s).service for s in federation.shard_ids]
            # Untimed warm-up: every resident document once, filling the caches.
            for index, data in enumerate(self.resident):
                if federation.get(f"doc-{index:06d}") != data:
                    phase.problems.append(f"serve warm-up doc-{index:06d} wrong bytes")
            before = cache_counters(services)
            logs = [ClientLog() for _ in range(SERVE_CLIENTS)]
            if phase.tracer is not None:
                phase.tracer.enabled = True
            start = time.perf_counter()
            deadline = start + self.sizes.serve_rep_seconds
            threads = [
                threading.Thread(
                    target=self.client,
                    args=(
                        federation,
                        random.Random(self.seed * 1_000_003 + phase.reps * 101 + client),
                        deadline,
                        f"new-{phase.reps}-{client}",
                        phase.tracer,
                        logs[client],
                    ),
                )
                for client in range(SERVE_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=self.sizes.serve_rep_seconds + 120)
            elapsed = time.perf_counter() - start
            if phase.tracer is not None:
                phase.tracer.enabled = False
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("a serve client did not finish")
            # The clients share one CPU, so their passes' time is taken off
            # the repetition's wall time.
            passes = [ns for log in logs for ns in log.speed.take()]
            serving = elapsed - sum(passes) / 1e9
            phase.client_s += SERVE_CLIENTS * serving
            done = sum(len(log.gets) + len(log.puts) for log in logs)
            phase.record(ops_s=done / serving, host_factor=host_factor(passes))
            phase.merge_stores(before, cache_counters(services))
            for log in logs:
                phase.attempted += log.attempted
                phase.failed += log.failed
                phase.problems.extend(log.problems)
                phase.latencies.setdefault("get", []).extend(log.gets)
                phase.latencies.setdefault("put", []).extend(log.puts)
                phase.add("docs_put", len(log.written))
                phase.add("user_bytes", len(log.written) * self.sizes.serve_doc_bytes)
                for name, index in log.written:
                    if federation.get(name) != self.resident[index]:
                        phase.problems.append(f"serve put {name} reads back wrong bytes")
        finally:
            federation.close()
            self.release_copy(data_dir, phase)

    def named(self, phase: Phase) -> List[Tuple[str, float, str, int]]:
        gets = phase.latencies.get("get", [])
        puts = phase.latencies.get("put", [])
        return [
            ("get_p50_ms", phase.rate("get_p50_ms"), "ms", len(gets)),
            ("get_p99_ms", phase.rate("get_p99_ms"), "ms", len(gets)),
            ("put_p50_ms", phase.rate("put_p50_ms"), "ms", len(puts)),
            ("put_p99_ms", phase.rate("put_p99_ms"), "ms", len(puts)),
        ]


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def _rows(metrics: List[object]) -> List[Dict[str, object]]:
    return [dataclasses.asdict(row) for row in metrics]  # type: ignore[call-overload]


class Simulate(Workload):
    """The Fig. 11 disaster sweep over 1M simulated data blocks."""

    name = "simulate"
    storage = False
    latency_kinds = ("disaster",)
    host_elasticity = 0.26

    def build(self) -> None:
        """Check the engine against the recorded fixed-seed reference rows."""
        rows = _rows(
            simulate_disasters(
                [SCHEME], data_blocks=REFERENCE_BLOCKS, location_count=SIM_LOCATIONS,
                seed=REFERENCE_SEED, fractions=FRACTIONS,
            )
        )
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            reference = json.load(handle)["rows"]
        self.reference_problems = (
            [] if rows == reference else ["simulate: fixed-seed rows differ from the reference"]
        )

    def repetition(self, phase: Phase) -> None:
        phase.problems.extend(self.reference_problems)
        self.reference_problems = []
        blocks = self.sizes.sim_blocks
        engine = None
        for _ in range(SIM_SETUPS_PER_REP):
            engine = None  # free the previous engine before building the next
            engine = phase.timed_setup(
                SimulationEngine, SCHEME, blocks, SIM_LOCATIONS, seed=self.seed
            )
        rows = []
        busy = 0
        # Each repetition draws its own disasters, so a run's result covers
        # several draws instead of resting on one.
        draw_seed = self.seed * 100_003 + phase.reps
        for offset, fraction in enumerate(FRACTIONS):
            failed = sample_disaster_locations(SIM_LOCATIONS, fraction, draw_seed, offset)
            phase.attempted += 1
            row, ns = phase.timed(engine.run_disaster, failed, disaster_fraction=fraction)  # type: ignore[union-attr]
            phase.sample("disaster", ns)
            busy += ns
            rows.append((failed, row))
        phase.record(ops_s=blocks * len(FRACTIONS) / (busy / 1e9))
        # Every data block on a failed location is either repaired, lost or
        # deferred (never under FULL maintenance), and counted once.
        data_location = engine.placement.data_location  # type: ignore[union-attr]
        for failed, row in rows:
            on_failed = int(np.count_nonzero(np.isin(data_location, failed)))
            if row.deferred_data or row.repaired_data + row.data_loss != on_failed:
                phase.problems.append(
                    f"simulate: row {dataclasses.asdict(row)} does not account for the "
                    f"{on_failed} data blocks on failed locations"
                )

    def named(self, phase: Phase) -> List[Tuple[str, float, str, int]]:
        lat = phase.latencies.get("disaster", [])
        return [
            ("sim_blocks_s", phase.rate("ops_s"), "1/s", phase.reps),
            ("disaster_p50_ms", phase.rate("disaster_p50_ms"), "ms", len(lat)),
        ]


WORKLOADS = {cls.name: cls for cls in (Ingest, SiteDisaster, Serve, Simulate)}
