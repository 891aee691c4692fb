"""Random instance generation protocol and the batch runner."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from reachmax import Box, SolveStatus, VRep, solve
from reachmax.linalg import eig_decompose, spectral_radius_check
from reachmax.qpcore import ObjectiveClass, classify
from reachmax.benchgen import (
    BenchSpec,
    ObjectiveKind,
    SystemKind,
    random_instance,
    run_bench,
)
from reachmax.cli import aggregate_row

from support import answer_key


def spec_of(objective=ObjectiveKind.CXH, system=SystemKind.LINEAR, dim=2, count=None, instances=10, seed=7, N=100):
    return BenchSpec(
        dim=dim,
        system_kind=system,
        objective_kind=objective,
        vertex_count=count,
        instance_count=instances,
        seed=seed,
        N=N,
    )


class TestBenchSpec:
    def test_concave_requires_box(self):
        with pytest.raises(ValueError):
            spec_of(objective=ObjectiveKind.CAH, count=8)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dim": 0}, "dim must be positive"),
            ({"count": -3}, "vertex sets need a positive vertex count"),
            ({"objective": ObjectiveKind.CANH, "count": 8}, "concave objectives require box initial sets"),
            ({"count": 0}, "vertex sets need a positive vertex count"),
            ({"instances": 0}, "instance_count must be positive"),
            ({"N": 0}, "N must be positive"),
        ],
    )
    def test_refusals(self, change, message):
        with pytest.raises(ValueError, match=message):
            spec_of(**change)


class TestRandomInstance:
    def test_generated_instances_satisfy_all_preconditions(self):
        for kind in ObjectiveKind:
            spec = spec_of(objective=kind, system=SystemKind.AFFINE, dim=3, seed=11)
            for i in range(10):
                inst = random_instance(spec, i)
                dec = eig_decompose(inst.A)
                assert spectral_radius_check(dec)
                assert 0.3 - 1e-9 <= dec.rho <= 0.97 + 1e-9
                klass = classify(inst.Qmat)
                if kind.convex:
                    assert klass is ObjectiveClass.CONVEX_PSD
                else:
                    assert klass is ObjectiveClass.STRICTLY_CONCAVE_ND
                if kind.homogeneous:
                    assert not np.any(inst.qvec)
                else:
                    assert np.any(inst.qvec)

    def test_linear_kind_has_zero_shift(self):
        spec = spec_of(system=SystemKind.LINEAR)
        for i in range(5):
            assert not np.any(random_instance(spec, i).b)

    def test_affine_kind_has_nonzero_shift(self):
        spec = spec_of(system=SystemKind.AFFINE)
        assert np.any(random_instance(spec, 0).b)

    def test_concave_draws_are_always_negative_definite(self):
        spec = spec_of(objective=ObjectiveKind.CAH, dim=3, seed=3)
        for i in range(100):
            inst = random_instance(spec, i)
            assert classify(inst.Qmat) is ObjectiveClass.STRICTLY_CONCAVE_ND

    def test_deterministic_under_seed_and_index(self):
        spec = spec_of(seed=99)
        a = random_instance(spec, 4)
        b = random_instance(spec, 4)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.Qmat, b.Qmat)
        assert np.array_equal(a.Xin.lower, b.Xin.lower)
        c = random_instance(spec, 5)
        assert not np.array_equal(a.A, c.A)

    def test_set_kinds(self):
        assert isinstance(random_instance(spec_of(), 0).Xin, Box)
        inst = random_instance(spec_of(count=17), 0)
        assert isinstance(inst.Xin, VRep)
        assert inst.Xin.points.shape == (17, 2)

    def test_a_draw_with_spectral_radius_zero_is_redrawn(self, monkeypatch):
        """A raw matrix whose eigenvalues are all 0 cannot be rescaled to a radius; the next draw is taken."""
        spec = spec_of(system=SystemKind.AFFINE, dim=3, seed=5)
        undisturbed = random_instance(spec, 0)
        original = np.linalg.eigvals
        calls = []

        def nilpotent_first(M):
            calls.append(M)
            return np.zeros(len(M)) if len(calls) == 1 else original(M)

        monkeypatch.setattr(np.linalg, "eigvals", nilpotent_first)
        inst = random_instance(spec, 0)
        assert len(calls) == 2
        assert not np.array_equal(inst.A, undisturbed.A)
        dec = eig_decompose(inst.A)
        assert spectral_radius_check(dec)
        assert 0.3 - 1e-9 <= dec.rho <= 0.97 + 1e-9
        solve(inst)

    def test_generation_gives_up_after_repeated_rejections(self, monkeypatch):
        import reachmax.benchgen as bg
        from reachmax.errors import GenerationExhausted, NotDiagonalizable

        def always_reject(_):
            raise NotDiagonalizable("forced rejection")

        monkeypatch.setattr(bg, "eig_decompose", always_reject)
        with pytest.raises(GenerationExhausted):
            random_instance(spec_of(), 0)


class TestRunBench:
    def test_counts_and_reproducibility(self):
        spec = spec_of(instances=12, seed=1234)
        records = run_bench(spec)
        assert [r.index for r in records] == list(range(12))
        # a record carries its report's status, or an Error status and no report
        for r in records:
            if r.report is None:
                assert r.status.startswith("Error:")
            else:
                assert r.status == r.report.status.value
        records2 = run_bench(spec)
        for r1, r2 in zip(records, records2):
            # wall-clock and memory vary run to run, everything else is pinned
            assert (r1.index, r1.status, answer_key(r1.report)) == (r2.index, r2.status, answer_key(r2.report))

    def test_linear_convex_boxes_have_rank_zero_positivity(self):
        for kind in (ObjectiveKind.CXH, ObjectiveKind.CXNH):
            spec = spec_of(objective=kind, instances=20, seed=5)
            records = run_bench(spec)
            assert all(r.report.status is not SolveStatus.FAILED for r in records)
            assert all(r.report.k_pos == 0 for r in records)

    def test_linear_concave_homogeneous_is_degenerate(self):
        # f <= f(0) = 0 at every reachable point, and no rank beats 0: the maximum 0 is attained,
        # at rank 0, only by a box that holds the origin, and every other box ends Failed at N
        spec = spec_of(objective=ObjectiveKind.CAH, instances=10, seed=6)
        records = run_bench(spec)
        assert Counter(r.status for r in records) == {"KDiag": 2, "Failed": 8}
        for r in records:
            box = random_instance(spec, r.index).Xin
            rep = r.report
            if np.all(box.lower <= 0.0) and np.all(box.upper >= 0.0):
                assert (r.status, rep.nu_opt, rep.k_opt, rep.k_pos, rep.iterations) == ("KDiag", 0.0, 0, None, 0)
            else:
                assert (r.status, rep.nu_opt, rep.k_opt, rep.k_pos, rep.iterations) == ("Failed", None, None, None, 101)

    def test_single_instance_stats_match_record(self):
        spec = spec_of(instances=1, seed=42)
        records = run_bench(spec)
        (r,) = records
        assert r.status == SolveStatus.K_DIAG.value
        K_final = r.report.K_trace[-1][1]
        agg = aggregate_row(spec, records)
        assert agg["status_c_k_f"] == "0/1/0"
        assert (agg["avg_iter"], agg["max_iter"]) == (f"{K_final:.2f}", K_final)
        assert (agg["avg_gap"], agg["max_gap"]) == (f"{K_final - r.report.k_opt:.2f}", K_final - r.report.k_opt)
        assert agg["max_k_pos"] == r.report.k_pos

    def test_records_match_direct_solves(self):
        spec = spec_of(instances=5, seed=21, system=SystemKind.AFFINE)
        records = run_bench(spec)
        for r in records:
            rep = solve(random_instance(spec, r.index))
            assert r.status == rep.status.value
            assert answer_key(r.report) == answer_key(rep)

    def test_memory_is_reported_for_every_solved_instance(self):
        spec = spec_of(instances=3, seed=8)
        records = run_bench(spec)
        assert all(r.mem_mib is not None and r.mem_mib > 0.0 for r in records)
        assert aggregate_row(spec, records)["avg_mem_mib"] == f"{float(np.mean([r.mem_mib for r in records])):.3f}"

    def test_memory_under_a_callers_tracing_is_the_solves_own_peak(self):
        # the caller's 10 MiB block and its earlier peak are not the solve's, and its tracing stays on
        tracemalloc.start()
        try:
            held = bytearray(10 * 1024 * 1024)
            records = run_bench(spec_of(instances=4, seed=8))
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        del held
        assert all(0.0 < r.mem_mib < 1.0 for r in records)

    def test_error_records_carry_no_report(self):
        # a 23-cube has 2^23 corners, above the vertex cap, so every solve is refused
        spec = spec_of(dim=23, instances=2)
        records = run_bench(spec)
        assert [(r.status, r.report, r.mem_mib) for r in records] == [("Error:DimensionTooLarge", None, None)] * 2
        agg = aggregate_row(spec, records)
        assert (agg["status_c_k_f"], agg["errors"]) == ("0/0/0", 2)
        assert agg["avg_mem_mib"] == agg["avg_k_pos"] == agg["max_iter"] == ""

    def test_concave_boxes_past_the_vertex_cap_are_solved(self):
        # a concave solve enumerates no corners, so the 23-cube refused above for cxh is no error for canh
        spec = spec_of(objective=ObjectiveKind.CANH, dim=23, instances=3)
        records = run_bench(spec)
        assert all(r.report is not None and r.status == r.report.status.value for r in records)
        assert aggregate_row(spec, records)["errors"] == 0
