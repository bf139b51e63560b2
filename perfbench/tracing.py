"""Span tracing from outside the program, and the per-layer accounting.

The tracer wraps public calls of the program's layers where their callers
look them up (a class attribute, or a module global such as
``repro.codes.entanglement.plan_round``).  Every wrapped call records one
span: name, start, end, the span that caused it and the operation id the
benchmark assigned to the request.  Spans stay in per-thread buffers in
memory and are written out once, when the benchmark ends.

A layer's self time is a span's duration minus the part of its interval
that its child spans cover.  The front-end runs requests on a thread pool,
so the pool the front-end constructs is replaced by one that hands the
submitting thread's span and operation id to the worker.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Amount = Callable[[tuple, object], float]

#: Spans recorded by the traced run: (span name, module, class or None,
#: attribute, optional amount hook).  The amount hook turns a call's
#: arguments and result into a quantity summed per span name (blocks
#: placed, records committed, bytes encoded, ...).
SPANS: Sequence[Tuple[str, str, Optional[str], str, Optional[Amount]]] = (
    ("sharding.get", "repro.system.sharding", "ShardedStorageService", "get", None),
    ("sharding.put", "repro.system.sharding", "ShardedStorageService", "put", None),
    ("frontend.get", "repro.system.frontend", "ConcurrentStorageService", "get", None),
    ("frontend.put", "repro.system.frontend", "ConcurrentStorageService", "put", None),
    ("service.open", "repro.system.service", "StorageService", "open", None),
    ("service.put", "repro.system.service", "StorageService", "put", None),
    ("service.get", "repro.system.service", "StorageService", "get", None),
    ("service.repair", "repro.system.service", "StorageService", "repair", None),
    ("scheme.encode", "repro.codes.entanglement", "EntanglementScheme", "encode", None),
    ("scheme.repair", "repro.codes.entanglement", "EntanglementScheme", "repair", None),
    ("scheme.read_block", "repro.codes.entanglement", "EntanglementScheme", "read_block", None),
    (
        "scheme.restore_state",
        "repro.codes.entanglement",
        "EntanglementScheme",
        "restore_state",
        None,
    ),
    (
        "encoder.entangle_batch",
        "repro.core.encoder",
        "BatchEntangler",
        "entangle_batch",
        lambda args, result: float(result.data.nbytes),  # type: ignore[attr-defined]
    ),
    (
        "batch_repair.plan",
        "repro.codes.entanglement",
        None,
        "plan_round",
        lambda args, result: float(len(result)),  # type: ignore[arg-type]
    ),
    ("batch_repair.xor", "repro.codes.entanglement", None, "execute_plan", None),
    (
        "placement.locations_for",
        "repro.storage.placement",
        "PlacementPolicy",
        "locations_for",
        lambda args, result: float(len(result)),  # type: ignore[arg-type]
    ),
    ("cluster.open", "repro.storage.cluster", "StorageCluster", "__init__", None),
    ("cluster.put_many", "repro.storage.cluster", "StorageCluster", "put_many", None),
    ("cluster.try_get_many", "repro.storage.cluster", "StorageCluster", "try_get_many", None),
    ("cluster.try_get_block", "repro.storage.cluster", "StorageCluster", "try_get_block", None),
    ("cluster.relocate_many", "repro.storage.cluster", "StorageCluster", "relocate_many", None),
    (
        "cluster.unavailable_blocks",
        "repro.storage.cluster",
        "StorageCluster",
        "unavailable_blocks",
        None,
    ),
    ("block_store.put_many", "repro.storage.block_store", "BlockStore", "put_many", None),
    ("block_store.get", "repro.storage.block_store", "BlockStore", "try_get_many", None),
    ("block_store.get", "repro.storage.block_store", "BlockStore", "try_get", None),
    ("backend.open", "repro.storage.backends", "SegmentLogBackend", "__init__", None),
    ("backend.put_many", "repro.storage.backends", "SegmentLogBackend", "put_many", None),
    ("backend.get", "repro.storage.backends", "SegmentLogBackend", "get", None),
    ("backend.flush", "repro.storage.backends", "SegmentLogBackend", "flush", None),
    (
        "wal.commit",
        "repro.storage.wal",
        "MetadataWAL",
        "commit",
        lambda args, result: float(len(args[1])),  # type: ignore[arg-type]
    ),
    ("wal.replay", "repro.storage.wal", None, "scan_wal", None),
    ("sim.build", "repro.simulation.engine", None, "build_simulation", None),
    (
        "sim.run_repair",
        "repro.simulation.engine",
        "SimulatedPlacement",
        "run_repair",
        lambda args, result: float(result.rounds),  # type: ignore[attr-defined]
    ),
)

#: Where the front-end looks up the executor class it builds its pool from.
EXECUTOR_SITE = ("repro.system.frontend", "ThreadPoolExecutor")


class _ThreadState:
    """One thread's span stack, current operation id and span buffer."""

    __slots__ = ("stack", "op", "ids", "parents", "names", "ops", "starts", "ends", "amounts")

    def __init__(self) -> None:
        self.stack: List[int] = [0]
        self.op = 0
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.amounts: Dict[int, float] = {}


class Tracer:
    """In-memory span recorder; a wrapped call records only while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self) -> None:
        """Give the calling thread's next request a fresh operation id."""
        self._state().op = next(self._op_ids)

    def wrap(self, name: str, fn: Callable, amount: Optional[Amount] = None) -> Callable:
        name_id = self._intern(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: object, **kwargs: object) -> object:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            span = next(tracer._span_ids)
            stack = state.stack
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.ids.append(span)
                state.parents.append(parent)
                state.names.append(name_id)
                state.ops.append(state.op)
                state.starts.append(start)
                state.ends.append(end)
            if amount is not None:
                state.amounts[name_id] = state.amounts.get(name_id, 0.0) + amount(args, result)
            return result

        return traced

    def _run_as_child(self, context: Tuple[int, int], fn: Callable, *args: object) -> object:
        state = self._state()
        saved = (state.stack, state.op)
        state.stack, state.op = [context[0]], context[1]
        try:
            return fn(*args)
        finally:
            state.stack, state.op = saved

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every name in :data:`SPANS` and the front-end's executor."""
        for name, module_name, class_name, attribute, amount in SPANS:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._replace(module, attribute, self.wrap(name, getattr(module, attribute), amount))
                continue
            for owner in _defining_classes(getattr(module, class_name), attribute):
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    wrapped: object = classmethod(self.wrap(name, original.__func__, amount))
                else:
                    wrapped = self.wrap(name, original, amount)
                self._replace(owner, attribute, wrapped)
        tracer = self

        class ContextExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):  # type: ignore[no-untyped-def]
                state = tracer._state()
                context = (state.stack[-1], state.op)
                return super().submit(
                    tracer._run_as_child, context, functools.partial(fn, *args, **kwargs)
                )

        module = importlib.import_module(EXECUTOR_SITE[0])
        self._replace(module, EXECUTOR_SITE[1], ContextExecutor)

    def _replace(self, owner: object, attribute: str, value: object) -> None:
        original = (
            owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        )
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------
    def spans(self) -> Dict[str, np.ndarray]:
        """Every recorded span as parallel arrays (times in ns)."""
        with self._states_lock:
            states = list(self._states)
        columns = {
            "id": [s.ids for s in states],
            "parent": [s.parents for s in states],
            "name": [s.names for s in states],
            "op": [s.ops for s in states],
            "start": [s.starts for s in states],
            "end": [s.ends for s in states],
        }
        return {
            key: np.concatenate([np.frombuffer(part, dtype=np.int64) for part in parts])
            if parts
            else np.zeros(0, dtype=np.int64)
            for key, parts in columns.items()
        }

    def amounts(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name_id, value in state.amounts.items():
                name = self.names[name_id]
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def write(self, path: str) -> None:
        """Write every span, and the name table, to one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.spans())


def _defining_classes(cls: type, attribute: str) -> Iterator[type]:
    """``cls`` and every subclass that defines ``attribute`` itself."""
    seen = set()
    todo = [cls]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        if attribute in current.__dict__:
            yield current
        todo.extend(current.__subclasses__())


class SpanSummary:
    """Self time, call counts and root coverage computed from the spans."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans()
        names = tracer.names
        ids, parents = spans["id"], spans["parent"]
        starts, ends = spans["start"], spans["end"]
        durations = ends - starts
        order = np.argsort(ids)
        ids, parents, starts, ends = ids[order], parents[order], starts[order], ends[order]
        durations, kinds = durations[order], spans["name"][order]
        covered = _child_cover(ids, parents, starts, ends)
        self_ns = durations - covered
        count = len(names)
        self.calls = dict(zip(names, np.bincount(kinds, minlength=count).tolist()))
        self.self_s = dict(
            zip(names, (np.bincount(kinds, weights=self_ns, minlength=count) / 1e9).tolist())
        )
        self.total_s = dict(
            zip(names, (np.bincount(kinds, weights=durations, minlength=count) / 1e9).tolist())
        )
        self.root_s = float(durations[parents == 0].sum()) / 1e9
        self.queue_wait_ms = _child_offsets_ms(
            names, ids, parents, starts, kinds,
            parent_names=("frontend.get", "frontend.put"),
            child_names=("service.get", "service.put"),
        )


def _child_cover(
    ids: np.ndarray, parents: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Per span (``ids`` sorted), the length of the union of its children's
    intervals, each clipped to the parent's interval."""
    covered = np.zeros(ids.size, dtype=np.int64)
    child = parents != 0
    if not child.any():
        return covered
    rows = np.searchsorted(ids, parents[child])
    known = (rows < ids.size) & (ids[np.minimum(rows, ids.size - 1)] == parents[child])
    rows = rows[known]
    c_start = np.maximum(starts[child][known], starts[rows])
    c_end = np.minimum(ends[child][known], ends[rows])
    c_end = np.maximum(c_end, c_start)
    order = np.lexsort((c_start, rows))
    rows, c_start, c_end = rows[order], c_start[order], c_end[order]
    # Children grouped by parent and sorted by start: a running maximum of
    # the end times, offset per group so groups never mix, gives for each
    # child the part of its interval no earlier sibling already covered.
    base = int(c_start.min())
    width = int(c_end.max() - base) + 1
    group = np.cumsum(np.r_[True, rows[1:] != rows[:-1]]) - 1
    shift = group.astype(np.int64) * width - base
    s_off, e_off = c_start + shift, c_end + shift
    reach = np.maximum.accumulate(e_off)
    previous = np.r_[np.int64(-1), reach[:-1]]
    first = np.r_[True, rows[1:] != rows[:-1]]
    previous[first] = s_off[first]
    gained = np.maximum(0, e_off - np.maximum(s_off, previous))
    np.add.at(covered, rows, gained)
    return covered


def _child_offsets_ms(
    names: List[str],
    ids: np.ndarray,
    parents: np.ndarray,
    starts: np.ndarray,
    kinds: np.ndarray,
    parent_names: Sequence[str],
    child_names: Sequence[str],
) -> List[float]:
    """Start of each ``child_names`` span minus its ``parent_names`` parent's start."""
    if ids.size == 0:
        return []
    wanted_parent = np.isin(kinds, [names.index(n) for n in parent_names if n in names])
    wanted_child = np.isin(kinds, [names.index(n) for n in child_names if n in names])
    rows = np.minimum(np.searchsorted(ids, parents[wanted_child]), ids.size - 1)
    hit = (ids[rows] == parents[wanted_child]) & wanted_parent[rows]
    offsets = starts[wanted_child][hit] - starts[rows[hit]]
    return (offsets / 1e6).tolist()
