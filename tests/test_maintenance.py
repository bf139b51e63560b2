"""Tests for the maintenance policies and budgets the simulator applies."""

from __future__ import annotations

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import AEParameters
from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy


class TestMaintenancePolicies:
    def test_policy_block_filters(self):
        assert MaintenancePolicy.FULL.repairs_block(DataId(1))
        assert MaintenancePolicy.FULL.repairs_block(ParityId(1, AEParameters.triple(2, 5).strand_classes[1]))
        assert MaintenancePolicy.MINIMAL.repairs_block(DataId(1))
        assert not MaintenancePolicy.MINIMAL.repairs_block(
            ParityId(1, AEParameters.triple(2, 5).strand_classes[1])
        )
        assert not MaintenancePolicy.NONE.repairs_block(DataId(1))
        assert MaintenancePolicy.FULL.repairs_parities()
        assert not MaintenancePolicy.MINIMAL.repairs_parities()

    def test_policy_descriptions(self):
        for policy in MaintenancePolicy:
            assert policy.describe()

    def test_budget(self):
        budget = MaintenanceBudget(max_repairs_per_round=5, max_rounds=2)
        assert budget.allows_round(2)
        assert not budget.allows_round(3)
        assert budget.clip_round(10) == 5
        assert MaintenanceBudget.unlimited().clip_round(10) == 10
