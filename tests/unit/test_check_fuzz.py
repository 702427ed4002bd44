"""Unit tests for the differential fuzz harness (`repro.check.fuzz`)."""

from __future__ import annotations

import json
import math

import pytest

from repro.check import FuzzPoint, run_fuzz
from repro.check.fuzz import (
    PointOutcome,
    check_point,
    shrink_point,
    write_reproducer,
)
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor


class TestFuzzPoint:
    def test_fully_determined_by_seed(self):
        assert FuzzPoint.from_seed(7) == FuzzPoint.from_seed(7)
        points = {FuzzPoint.from_seed(s) for s in range(16)}
        assert len(points) > 1  # the corpus actually varies

    def test_build_is_deterministic(self):
        a_timing, a_topo, a_alloc, a_tau = FuzzPoint.from_seed(3).build()
        b_timing, b_topo, b_alloc, b_tau = FuzzPoint.from_seed(3).build()
        assert a_alloc == b_alloc
        assert a_tau == b_tau
        assert a_topo.name == b_topo.name
        assert [m.name for m in a_timing.tfg.messages] == [
            m.name for m in b_timing.tfg.messages
        ]

    def test_topology_hosts_the_tasks(self):
        for seed in range(12):
            point = FuzzPoint.from_seed(seed)
            timing, topology, allocation, tau_in = point.build()
            assert topology.num_nodes >= timing.tfg.num_tasks
            assert len(set(allocation.values())) == len(allocation)
            assert tau_in >= timing.tau_c
            # bandwidth was derived so every window fits
            assert timing.tau_m <= timing.message_window

    def test_round_trips_through_dict(self):
        point = FuzzPoint.from_seed(11)
        assert FuzzPoint(**point.to_dict()) == point


class TestCheckPoint:
    def test_small_corpus_has_no_disagreements(self):
        report = run_fuzz(range(4))
        assert report.ok
        assert len(report.outcomes) == 4
        assert report.reproducers == []
        for outcome in report.outcomes:
            assert outcome.verdict in ("feasible", "infeasible")
            assert "reference" in outcome.backends
        assert "0 disagreement(s)" in report.summary()

    def test_progress_callback_sees_every_seed(self):
        lines = []
        report = run_fuzz(range(3), progress=lines.append)
        assert len(lines) == 3
        assert report.ok

    def test_check_point_is_repeatable(self):
        point = FuzzPoint.from_seed(0)
        assert check_point(point).verdict == check_point(point).verdict


class TestDeltaDifferential:
    def test_perturbation_is_deterministic_and_distinct(self):
        from repro.check.fuzz import _perturb

        point = FuzzPoint.from_seed(0)
        inputs = point.build()
        first = _perturb(point, inputs)
        second = _perturb(point, inputs)
        assert first is not None and second is not None
        timing, topology, allocation, tau_in = inputs
        p_timing, p_topology, p_allocation, p_tau = first
        # Same perturbation both times.
        assert [
            (m.name, m.size_bytes) for m in p_timing.tfg.messages
        ] == [(m.name, m.size_bytes) for m in second[0].tfg.messages]
        assert p_topology.name == second[1].name
        # ...and actually different from the original instance.
        assert (
            [(m.name, m.size_bytes) for m in p_timing.tfg.messages]
            != [(m.name, m.size_bytes) for m in timing.tfg.messages]
            or set(p_topology.links) != set(topology.links)
            or p_tau != tau_in
        )

    def test_every_perturbation_kind_applies_somewhere(self):
        from repro.check.fuzz import _PERTURBATIONS, _perturb

        kinds = set()
        for seed in range(6):
            point = FuzzPoint.from_seed(seed)
            inputs = point.build()
            perturbed = _perturb(point, inputs)
            assert perturbed is not None
            for kind in range(point.seed % 3, point.seed % 3 + 3):
                if _PERTURBATIONS[kind % 3](point, inputs) is not None:
                    kinds.add(kind % 3)
                    break
        assert len(kinds) > 1  # the corpus exercises several kinds

    def test_delta_recompile_matches_cold(self, tmp_path):
        from repro.check.fuzz import _check_delta

        for seed in (0, 1):  # one feasible, one infeasible point
            point = FuzzPoint.from_seed(seed)
            disagreements: list[str] = []
            _check_delta(
                point, "reference", point.build(), tmp_path, disagreements
            )
            assert disagreements == []


class TestVerifierDifferential:
    """The closed-form replay must match the DES float for float."""

    @staticmethod
    def verify(point):
        from repro.check.fuzz import _CONFIG, _verify_feasible

        inputs = point.build()
        routing = compile_schedule(*inputs, CompilerConfig(**_CONFIG))
        disagreements: list[str] = []
        _verify_feasible(point, "auto", inputs, routing, disagreements)
        return disagreements

    def test_replays_agree(self):
        assert self.verify(FuzzPoint.from_seed(0)) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            # one completion time off by one ulp
            lambda times, busy: (
                (math.nextafter(times[0], math.inf),) + times[1:], busy
            ),
            # the same link busy times in another key order
            lambda times, busy: (times, dict(reversed(busy.items()))),
        ],
        ids=["completion-ulp", "link-order"],
    )
    def test_closed_form_divergence_is_reported(self, monkeypatch, mutate):
        closed_form = ScheduledRoutingExecutor._closed_form

        def diverging(self, table):
            return mutate(*closed_form(self, table))

        monkeypatch.setattr(
            ScheduledRoutingExecutor, "_closed_form", diverging
        )
        assert any(
            "closed-form replay differs from the DES replay" in line
            for line in self.verify(FuzzPoint.from_seed(0))
        )


class TestReproducers:
    def failing_outcome(self):
        outcome = PointOutcome(
            point=FuzzPoint.from_seed(99), verdict="feasible",
            backends=("reference",),
        )
        outcome.disagreements.append("seed 99: synthetic disagreement")
        return outcome

    def test_write_reproducer_format(self, tmp_path):
        path = write_reproducer(self.failing_outcome(), tmp_path)
        assert path.name == "fuzz-99.json"
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.fuzz-reproducer/1"
        assert payload["point"] == FuzzPoint.from_seed(99).to_dict()
        assert payload["disagreements"] == [
            "seed 99: synthetic disagreement"
        ]
        # the point is reconstructible from the file alone
        assert FuzzPoint(**payload["point"]) == FuzzPoint.from_seed(99)

    def test_shrink_returns_original_when_healthy(self):
        point = FuzzPoint.from_seed(0)
        assert shrink_point(point, attempts=2) == point

    def test_forced_disagreement_writes_reproducer(
        self, tmp_path, monkeypatch
    ):
        import repro.check.fuzz as fuzz_module

        def broken_verify(point, backend, inputs, routing, out):
            out.append(f"seed {point.seed} [{backend}]: forced failure")

        monkeypatch.setattr(
            fuzz_module, "_verify_feasible", broken_verify
        )
        # seed 0 is feasible, so the forced failure must trigger.
        report = run_fuzz([0], out_dir=tmp_path)
        assert not report.ok
        assert len(report.reproducers) == 1
        assert report.reproducers[0].exists()
