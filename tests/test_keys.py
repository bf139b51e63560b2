"""Tests for block keys and deterministic location mapping."""

from __future__ import annotations

import pytest

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import StrandClass
from repro.exceptions import PlacementError
from repro.system.keys import derive_key, location_for_block


class TestKeys:
    def test_keys_are_stable_and_distinct(self):
        key_one = derive_key("alice", DataId(26))
        key_two = derive_key("alice", DataId(26))
        key_other_block = derive_key("alice", DataId(27))
        key_other_owner = derive_key("bob", DataId(26))
        assert key_one == key_two
        assert key_one != key_other_block
        assert key_one != key_other_owner
        assert len(key_one.digest) == 64

    def test_keys_do_not_depend_on_payload(self):
        """Keys derive from owner + lattice position only (paper, Sec. IV-A)."""
        parity = ParityId(26, StrandClass.RIGHT_HANDED)
        assert derive_key("alice", parity) == derive_key("alice", parity)
        assert "p[26,rh]" == derive_key("alice", parity).block_label

    def test_location_mapping_is_in_range(self):
        for index in range(1, 200):
            location = location_for_block("alice", DataId(index), 13)
            assert 0 <= location < 13

    def test_location_mapping_requires_locations(self):
        with pytest.raises(PlacementError):
            location_for_block("alice", DataId(1), 0)

    def test_location_mapping_is_the_ring_digest_convention(self):
        """Block keys map through ShardRing.digest_index; the historical
        mapping (first-12-hex modulo) is pinned byte-for-byte, for data
        blocks and parities alike."""
        from repro.system.sharding import ShardRing

        for index in range(1, 50):
            for block_id in (DataId(index), ParityId(index, StrandClass.HORIZONTAL)):
                key = derive_key("alice", block_id)
                expected = int(key.digest[:12], 16) % 13
                assert location_for_block("alice", block_id, 13) == expected
                assert ShardRing.digest_index(key.digest, 13) == expected

    def test_exclusion_avoids_owner_node(self):
        for index in range(1, 100):
            parity = ParityId(index, StrandClass.HORIZONTAL)
            home = location_for_block("alice", parity, 10)
            adjusted = location_for_block("alice", parity, 10, exclude=home)
            assert adjusted != home

    def test_short_and_str(self):
        key = derive_key("alice", DataId(1))
        assert key.short() == key.digest[:16]
        assert "alice" in str(key)
