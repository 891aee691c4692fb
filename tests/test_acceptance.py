"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS/FAIL` line (visible with -s). The
criteria pin the oscillator golden values, the rank-profile golden values,
the randomized property suites, and the oracle cross-checks, with explicit
runtime budgets where stated.
"""

import contextlib
import time

import numpy as np

from reachmax import Box, ProblemInstance, SolveStatus, solve
from reachmax.bounds import build_spectral_data
from reachmax.geometry import vertices
from reachmax.linalg import eig_decompose
from reachmax.seqlab import BEYOND_PREFIX, INFINITE, FiniteC0Sequence, rank_profile
from reachmax.solver import reduce_affine
from reachmax.benchgen import BenchSpec, ObjectiveKind, SystemKind, random_instance, run_bench

from support import (
    OSC_A,
    brute_force,
    check_profile_properties,
    hump_seq,
    nu_prefix,
    osc_box,
    plateau_seq,
    random_sequences,
    strictly_negative_seq,
    touch_zero_seq,
    trajectory_max,
)


@contextlib.contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL  {description}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS  {description}")


def osc_instance(Q, q=(0.0, 0.0)):
    return ProblemInstance(
        A=OSC_A, b=np.zeros(2), Qmat=np.asarray(Q, float), qvec=np.asarray(q, float),
        Xin=osc_box(), N=100,
    )


def test_criterion_01_oscillator_norm_square():
    with criterion(1, "norm-square objective: value 2 at rank 0, horizon 111 never updated"):
        start = time.perf_counter()
        rep = solve(osc_instance(np.eye(2)))
        elapsed = time.perf_counter() - start
        assert rep.status is SolveStatus.K_DIAG
        assert abs(rep.nu_opt - 2.0) <= 1e-9
        assert rep.k_opt == 0
        assert rep.K_trace[0] == (0, 111)
        assert len(rep.K_trace) == 1
        assert elapsed < 1.0


def test_criterion_02_oscillator_first_coordinate_square():
    with criterion(2, "first-coordinate square: horizon 140 -> 90, peak 1.64886 at rank 61"):
        start = time.perf_counter()
        rep = solve(osc_instance(np.diag([1.0, 0.0])))
        elapsed = time.perf_counter() - start
        assert rep.status is SolveStatus.K_DIAG
        assert rep.K_trace[0] == (0, 140)
        assert abs(rep.nu_opt - 1.64886) <= 1e-4
        assert rep.k_opt == 61
        assert rep.K_trace[-1][1] == 90
        assert elapsed < 1.0
        # nu_1 = 1.0201 is exceeded at ranks 121..135, so the rank-1 update is 138.
        assert (1, 138) in rep.K_trace
        # Every stopping rank must be sound: no value from K on beats nu_j.
        nus, _ = nu_prefix(osc_instance(np.diag([1.0, 0.0])), 4 * 140)
        for j, K in rep.K_trace:
            assert max(nus[K : 4 * 140 + 1]) <= nus[j]


def test_criterion_03_oscillator_second_coordinate_square():
    with criterion(3, "second-coordinate square: horizon 140, value 1 at rank 0"):
        rep = solve(osc_instance(np.diag([0.0, 1.0])))
        assert rep.status is SolveStatus.K_DIAG
        assert rep.K_trace[0] == (0, 140)
        assert rep.nu_opt == 1.0
        assert rep.k_opt == 0


def test_criterion_04_oscillator_nonhomogeneous():
    with criterion(4, "non-homogeneous objective: correction 1/2, envelope 7+sqrt(7), horizon 115"):
        Q = np.array([[1.0, -0.5], [-0.5, 0.25]])
        q = np.array([-1.0, 0.5])
        sd = build_spectral_data(eig_decompose(OSC_A), Q, q, vertices(osc_box()))
        # the paper's correction V = ||U* q|| / (2 sqrt(L)); the envelope L M + ||U* q|| sqrt(M) needs no V
        assert sd.lin_norm / (2.0 * np.sqrt(sd.lmax_abs)) == 0.5
        assert abs(sd.envelope - (7.0 + np.sqrt(7.0))) <= 1e-9
        rep = solve(osc_instance(Q, q))
        assert rep.status is SolveStatus.K_DIAG
        assert rep.K_trace[0] == (0, 115)
        assert rep.nu_opt == 3.75
        assert rep.k_opt == 0
        np.testing.assert_array_equal(rep.x_opt, [-1.0, 1.0])


def test_criterion_05_strictly_negative_instance_fails():
    with criterion(5, "decaying negative values: positivity search exhausts N=100"):
        inst = ProblemInstance(
            A=[[0.5]], b=[0.0], Qmat=[[1.0]], qvec=[-1.0], Xin=Box([0.25], [0.5]), N=100
        )
        rep = solve(inst)
        assert rep.status is SolveStatus.FAILED


def test_criterion_06_reference_rank_profiles():
    with criterion(6, "reference sequences reproduce their known rank profiles"):
        p = rank_profile(FiniteC0Sequence(hump_seq(41)))
        assert (p.k_geq, p.k_gt, p.K_geq, p.K_gt) == (1, 2, 4, 4)
        p = rank_profile(FiniteC0Sequence(plateau_seq(41)))
        assert (p.k_geq, p.k_gt, p.K_geq, p.K_gt) == (2, 3, 4, 11)
        p = rank_profile(FiniteC0Sequence(strictly_negative_seq(41)))
        assert not any(isinstance(r, int) for r in (p.k_geq, p.k_gt, p.K_geq, p.K_gt))
        assert p.k_geq is BEYOND_PREFIX and p.K_geq is BEYOND_PREFIX
        assert p.k_gt is INFINITE and p.K_gt is INFINITE
        p = rank_profile(FiniteC0Sequence(touch_zero_seq(41)))
        assert p.k_geq == 4 and p.K_geq == 4
        assert p.k_gt is INFINITE and p.K_gt is INFINITE


def test_criterion_07_rank_profile_property_suite():
    with criterion(7, "1000 random sequences: zero property violations in under 10 s"):
        start = time.perf_counter()
        for u in random_sequences(1000, seed=20260809):
            check_profile_properties(u)
        assert time.perf_counter() - start < 10.0


def _mixed_specs(seed: int) -> list[BenchSpec]:
    specs = []
    for dim in (2, 3, 4, 5):
        for system in (SystemKind.LINEAR, SystemKind.AFFINE):
            specs.append(BenchSpec(dim, system, ObjectiveKind.CXH, "box", None, 1, seed + dim, 100))
            specs.append(
                BenchSpec(dim, system, ObjectiveKind.CXNH, "vertices", 10, 1, seed + 10 + dim, 100)
            )
            specs.append(BenchSpec(dim, system, ObjectiveKind.CANH, "box", None, 1, seed + 20 + dim, 100))
    return specs


def test_criterion_08_oracle_equivalence_on_random_instances():
    with criterion(8, "200 random instances: brute-force agreement, shrinking horizons, sound envelope"):
        start = time.perf_counter()
        specs = _mixed_specs(seed=8080)
        total = 0
        checked_kdiag = 0
        index = 0
        while total < 200:
            spec = specs[total % len(specs)]
            inst = random_instance(spec, index)
            if total % len(specs) == len(specs) - 1:
                index += 1
            rep = solve(inst)
            total += 1
            if rep.status is not SolveStatus.K_DIAG or rep.iterations == 0:
                continue
            checked_kdiag += 1
            final_k = rep.K_trace[-1][1]
            val, k, _ = brute_force(inst, 4 * final_k)
            assert abs(val - rep.nu_opt) <= 1e-7
            assert k == rep.k_opt
            ks = [K for _, K in rep.K_trace]
            assert all(a >= b for a, b in zip(ks, ks[1:]))
            red = reduce_affine(inst)
            sd = build_spectral_data(eig_decompose(inst.A), red.Qmat, red.qvec_reduced, vertices(red.Xwork))
            nus, _ = nu_prefix(inst, final_k)
            assert np.all(nus[1:] <= sd.envelope + 1e-7)
        elapsed = time.perf_counter() - start
        assert checked_kdiag >= 120
        assert elapsed < 120.0


def test_criterion_09_benchmark_shape():
    with criterion(9, "seeded batch of 100 planar convex instances: no failures, positivity at rank 0"):
        spec = BenchSpec(
            dim=2,
            system_kind=SystemKind.LINEAR,
            objective_kind=ObjectiveKind.CXH,
            set_kind="box",
            vertex_count=None,
            instance_count=100,
            seed=20260809,
            N=100,
        )
        records = run_bench(spec)
        assert all(r.report is not None and r.report.status is not SolveStatus.FAILED for r in records)
        assert all(r.report.k_pos == 0 for r in records)


def test_criterion_10_affine_consistency():
    with criterion(10, "50 affine instances match direct trajectory simulation"):
        specs = [
            BenchSpec(dim, SystemKind.AFFINE, obj, set_kind, count, 1, 1000 + dim, 100)
            for dim in (2, 3, 4)
            for obj, set_kind, count in (
                (ObjectiveKind.CXH, "box", None),
                (ObjectiveKind.CXNH, "box", None),
                (ObjectiveKind.CXNH, "vertices", 8),
            )
        ]
        checked = 0
        attempts = 0
        index = 0
        while checked < 50 and attempts < 400:
            spec = specs[attempts % len(specs)]
            if attempts % len(specs) == len(specs) - 1:
                index += 1
            attempts += 1
            inst = random_instance(spec, index)
            rep = solve(inst)
            if rep.status is not SolveStatus.K_DIAG or rep.iterations == 0:
                continue
            ref = trajectory_max(inst, 4 * rep.K_trace[-1][1])
            assert abs(rep.nu_opt - ref) <= 1e-7
            checked += 1
        assert checked == 50
