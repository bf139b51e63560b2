"""Encoder/decoder throughput micro-benchmarks.

The paper positions AE codes as lightweight ("essentially based on
exclusive-or operations"); these benchmarks measure the XOR entangler and the
repair path against the GF(2^8) Reed-Solomon baseline on the same machine.
Absolute numbers are machine-specific; the expected shape is that AE encoding
is substantially faster per byte than RS encoding and that a single-failure
repair touches only two blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.entanglement import EntanglementScheme
from repro.codes.reed_solomon import ReedSolomonCode
from repro.core.blocks import DataId
from repro.core.encoder import Entangler
from repro.core.parameters import AEParameters

BLOCK_SIZE = 64 * 1024
BLOCKS_PER_RUN = 64


def _payloads(count: int, size: int = BLOCK_SIZE):
    rng = np.random.default_rng(0)
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(count)]


@pytest.mark.parametrize("spec", ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"])
def test_ae_encoding_throughput(benchmark, spec):
    params = AEParameters.parse(spec)
    payloads = _payloads(BLOCKS_PER_RUN)

    def encode_batch():
        encoder = Entangler(params, block_size=BLOCK_SIZE)
        for payload in payloads:
            encoder.entangle(payload)
        return encoder.blocks_encoded

    encoded = benchmark(encode_batch)
    assert encoded == BLOCKS_PER_RUN
    benchmark.extra_info["MB per run"] = BLOCKS_PER_RUN * BLOCK_SIZE / 1e6


@pytest.mark.parametrize("setting", [(10, 4), (4, 12)])
def test_rs_encoding_throughput(benchmark, setting):
    k, m = setting
    code = ReedSolomonCode(k, m)
    stripes = max(BLOCKS_PER_RUN // k, 1)
    data = _payloads(k)

    def encode_batch():
        total = 0
        for _ in range(stripes):
            total += len(code.encode(data))
        return total

    produced = benchmark(encode_batch)
    assert produced == stripes * m
    benchmark.extra_info["MB per run"] = stripes * k * BLOCK_SIZE / 1e6


def test_ae_single_failure_repair_throughput(benchmark):
    scheme = EntanglementScheme(AEParameters.triple(2, 5), block_size=BLOCK_SIZE)
    store = dict(scheme.encode(_payloads(BLOCKS_PER_RUN)).blocks)
    victim = DataId(BLOCKS_PER_RUN // 2)
    original = store.pop(victim)

    repaired = benchmark(scheme.read_block, victim, store.get)
    assert np.array_equal(repaired, original)


def test_rs_single_failure_repair_throughput(benchmark):
    code = ReedSolomonCode(10, 4)
    data = _payloads(10)
    parities = code.encode(data)
    stripe = {index: payload for index, payload in enumerate(data)}
    stripe.update({10 + index: payload for index, payload in enumerate(parities)})
    available = dict(stripe)
    del available[5]

    repaired = benchmark(code.repair, 5, available)
    assert np.array_equal(repaired, stripe[5])
