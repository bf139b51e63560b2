"""Single-block vs. batched ingest throughput (the write path of Fig. 10).

The paper argues AE encoding is lightweight because it is "essentially based
on exclusive-or operations"; this benchmark quantifies how much of the
remaining cost is Python per-block machinery by comparing

* the sequential encoder (``Entangler.entangle`` per 4 KiB block) against the
  vectorised ``BatchEntangler.entangle_batch``, across block sizes and
  AE(alpha, s, p) settings, and
* the per-block store path (one ``Entangler.entangle`` and one cluster
  ``put_block`` per block) against the batched zero-copy pipeline
  (``StorageService.put_stream``) end to end.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_ingest.py -q -s

``test_batch_encode_speedup_at_4k`` is the acceptance gate: batched encoding
must be at least 3x faster than the per-block path at 4 KiB blocks while
producing bit-identical parities.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from perf_record import record_entry
from repro.codes.entanglement import EntanglementScheme
from repro.core.encoder import BatchEntangler, Entangler
from repro.core.parameters import AEParameters
from repro.storage.cluster import StorageCluster
from repro.storage.placement import RandomPlacement
from repro.system.service import StorageService

SPECS = ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"]
BLOCK_SIZES = [1024, 4096, 16384]
BATCH_BLOCKS = 1024


def data_matrix(blocks: int, block_size: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(blocks, block_size), dtype=np.uint8)


def fresh_cluster(locations: int = 50) -> StorageCluster:
    return StorageCluster(locations, RandomPlacement(locations, seed=0))


def ae_service(params: AEParameters, block_size: int = 4096) -> StorageService:
    """An AE storage service over a fresh 50-location cluster."""
    return StorageService(EntanglementScheme(params, block_size), fresh_cluster())


def best_of(fn, repeat: int = 5) -> float:
    fn()  # warm-up: first calls pay page-fault cost for fresh batch matrices
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_sequential_encode(benchmark, spec, block_size):
    params = AEParameters.parse(spec)
    data = data_matrix(BATCH_BLOCKS, block_size)

    def encode():
        encoder = Entangler(params, block_size)
        for row in data:
            encoder.entangle(row)
        return encoder.blocks_encoded

    assert benchmark(encode) == BATCH_BLOCKS
    benchmark.extra_info["MB per run"] = BATCH_BLOCKS * block_size / 1e6


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_batched_encode(benchmark, spec, block_size):
    params = AEParameters.parse(spec)
    data = data_matrix(BATCH_BLOCKS, block_size)

    def encode():
        encoder = BatchEntangler(params, block_size)
        encoder.entangle_batch(data)
        return encoder.blocks_encoded

    assert benchmark(encode) == BATCH_BLOCKS
    benchmark.extra_info["MB per run"] = BATCH_BLOCKS * block_size / 1e6


@pytest.mark.parametrize("spec", SPECS)
def test_store_path_put(benchmark, spec):
    params = AEParameters.parse(spec)
    payload = data_matrix(512, 4096).tobytes()

    def ingest():
        return ae_service(params).put("doc", payload).block_count

    assert benchmark(ingest) == 512


@pytest.mark.parametrize("spec", SPECS)
def test_store_path_put_stream(benchmark, spec):
    params = AEParameters.parse(spec)
    payload = data_matrix(512, 4096).tobytes()

    def ingest():
        return ae_service(params).put_stream("doc", [payload]).block_count

    assert benchmark(ingest) == 512


def test_batch_encode_speedup_at_4k(print_tables):
    """Acceptance gate: >= 3x encode throughput at 4 KiB, bit-identical output."""
    params = AEParameters.triple(2, 5)
    block_size = 4096
    data = data_matrix(2048, block_size)

    def run_sequential():
        encoder = Entangler(params, block_size)
        for row in data:
            encoder.entangle(row)

    t_sequential = best_of(run_sequential)
    t_batched = best_of(lambda: BatchEntangler(params, block_size).entangle_batch(data))
    speedup = t_sequential / t_batched

    # Bit-identical parities: same ids, same payloads, for the same input.
    sequential = Entangler(params, block_size)
    batched = BatchEntangler(params, block_size)
    expected = [sequential.entangle(row) for row in data[:256]]
    produced = batched.entangle_batch(data[:256]).encoded_blocks()
    for want, got in zip(expected, produced):
        assert want.data_id == got.data_id
        assert [p.block_id for p in want.parities] == [p.block_id for p in got.parities]
        for wp, gp in zip(want.parities, got.parities):
            assert np.array_equal(wp.payload, gp.payload)

    if print_tables:
        mb = data.nbytes / 1e6
        print(
            f"\nAE(3,2,5) @ 4 KiB: sequential {mb / t_sequential:7.1f} MB/s, "
            f"batched {mb / t_batched:7.1f} MB/s, speedup {speedup:.1f}x"
        )
    mb = data.nbytes / 1e6
    record_entry(
        "ingest",
        "ae-3-2-5/batch-encode-speedup@4096",
        scheme="ae-3-2-5",
        block_size=block_size,
        seed=0,
        metrics={
            "speedup": speedup,
            "batched_mb_s": mb / t_batched,
            "sequential_mb_s": mb / t_sequential,
        },
        gates=["speedup"],
    )
    assert speedup >= 3.0, f"batched encode only {speedup:.2f}x faster than per-block"


def test_end_to_end_stream_speedup(print_tables):
    """The batched store path must beat per-block ingestion.

    Since the scheme-agnostic refactor both ``put`` and ``put_stream`` ride
    the vectorised ``entangle_batch`` + bulk ``put_many`` path, so the
    per-block baseline is a loop of one ``entangle`` + one cluster
    ``put_block`` per block, the pre-batching write path.
    """
    params = AEParameters.triple(2, 5)
    blocks = data_matrix(2048, 4096)
    payload = blocks.tobytes()

    def run_per_block():
        encoder = Entangler(params, 4096)
        cluster = fresh_cluster()
        for row in blocks:
            for block in encoder.entangle(row).all_blocks():
                cluster.put_block(block)

    def run_stream():
        ae_service(params).put_stream("doc", [payload])

    t_block = best_of(run_per_block, repeat=3)
    t_stream = best_of(run_stream, repeat=3)
    if print_tables:
        mb = len(payload) / 1e6
        print(
            f"\nstore path @ 4 KiB: per-block {mb / t_block:6.1f} MB/s, "
            f"put_stream {mb / t_stream:6.1f} MB/s, speedup {t_block / t_stream:.1f}x"
        )
    # Loose bound: wall-clock ratios on shared machines are noisy; the hard
    # acceptance gate is the encode-throughput test above.
    assert t_block / t_stream >= 1.2, "batched ingest should beat per-block writes"
