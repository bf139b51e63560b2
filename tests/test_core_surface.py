"""Import-surface test: `repro.core.__all__` is complete and importable.

Mirrors the schemes/simulation/storage surface tests and anchors the code
extensions of the dynamic-redundancy subsystem: the dynamic-upgrade and
puncturing helpers the transition engine builds on must stay exported.
"""

from __future__ import annotations

import inspect

import repro.core


class TestCoreImportSurface:
    def test_all_entries_resolve(self):
        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None

    def test_all_is_sorted_and_unique(self):
        exported = list(repro.core.__all__)
        assert exported == sorted(exported)
        assert len(exported) == len(set(exported))

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro.core import *", namespace)
        missing = set(repro.core.__all__) - set(namespace)
        assert not missing, f"__all__ entries not importable via *: {sorted(missing)}"

    def test_public_submodule_definitions_are_exported(self):
        import repro.core.dynamic
        import repro.core.puncturing

        exported = set(repro.core.__all__)
        for module in (repro.core.dynamic, repro.core.puncturing):
            for name, value in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(value) or inspect.isfunction(value)):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                assert name in exported, (
                    f"{module.__name__}.{name} missing from repro.core.__all__"
                )

    def test_transition_building_blocks_are_exported(self):
        """The symbols the transition engine composes stay on the surface."""
        for required in (
            "AlphaUpgrader",
            "DataFetcher",
            "EpochHistory",
            "ParameterEpoch",
            "PuncturedCode",
            "PuncturingPolicy",
            "UpgradePlan",
            "parity_survivors",
            "plan_alpha_upgrade",
            "puncture_rate",
        ):
            assert required in repro.core.__all__

    def test_one_repair_loop(self):
        """Lattice repair lives in EntanglementScheme.repair alone; the
        recursive decoder and the iterative repairer left the surface."""
        import repro
        import repro.storage
        import repro.system

        for gone in ("Decoder", "IterativeRepairer", "RepairReport", "RepairRound"):
            assert gone not in repro.core.__all__
            assert gone not in repro.__all__
        assert "ClusterRepairManager" not in repro.storage.__all__
        assert "EntangledStorageSystem" not in repro.system.__all__
        for required in ("RepairPlanStep", "execute_plan", "plan_inputs", "plan_round"):
            assert required in repro.core.__all__
