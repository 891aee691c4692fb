"""Random instance generation and a batch benchmark runner.

Instances are drawn deterministically from (seed, index): the system matrix
is rescaled to a uniform random spectral radius in [0.3, 0.97] and redrawn
until it is diagonalizable; the quadratic part is M^T M (convex kinds) or
-M^T M - 1e-3 I (concave kinds); initial sets are random boxes or random
point clouds. Concave kinds require boxes.
"""

from __future__ import annotations

import enum
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .errors import GenerationExhausted, NotDiagonalizable, ReachmaxError
from .geometry import Box, VRep
from .linalg import eig_decompose
from .solver import DEFAULT_N, ProblemInstance, SolveReport, solve

_MAX_MATRIX_ATTEMPTS = 1000
_SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF


class SystemKind(enum.Enum):
    LINEAR = "linear"
    AFFINE = "affine"


class ObjectiveKind(enum.Enum):
    CXH = "cxh"    # convex homogeneous
    CXNH = "cxnh"  # convex non-homogeneous
    CAH = "cah"    # concave homogeneous
    CANH = "canh"  # concave non-homogeneous

    @property
    def convex(self) -> bool:
        return self in (ObjectiveKind.CXH, ObjectiveKind.CXNH)

    @property
    def homogeneous(self) -> bool:
        return self in (ObjectiveKind.CXH, ObjectiveKind.CAH)


@dataclass(eq=False)
class BenchSpec:
    """One benchmark batch: everything needed to regenerate it bit for bit."""

    dim: int
    system_kind: SystemKind
    objective_kind: ObjectiveKind
    set_kind: str = "box"  # "box" or "vertices"
    vertex_count: int | None = None
    instance_count: int = 100
    seed: int = 0
    N: int = DEFAULT_N

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.set_kind not in ("box", "vertices"):
            raise ValueError(f"unknown set kind {self.set_kind!r}")
        if self.set_kind == "vertices":
            if not self.objective_kind.convex:
                raise ValueError("concave objectives require box initial sets")
            if self.vertex_count is None or self.vertex_count < 1:
                raise ValueError("vertex sets need a positive vertex count")
        if self.instance_count < 1:
            raise ValueError("instance_count must be positive")
        if self.N < 1:
            raise ValueError("N must be positive")


@dataclass(eq=False)
class InstanceRecord:
    """One solved instance: its report, or status Error:<exception name> and no report."""

    index: int
    status: str
    report: SolveReport | None
    time_s: float
    mem_mib: float | None = None


def random_instance(spec: BenchSpec, index: int) -> ProblemInstance:
    """Deterministic random instance number `index` of the batch."""
    rng = np.random.default_rng([spec.seed & _SEED_MASK, index])
    d = spec.dim

    A = None
    for _ in range(_MAX_MATRIX_ATTEMPTS):
        raw = rng.uniform(-1.0, 1.0, size=(d, d))
        target_rho = rng.uniform(0.3, 0.97)
        measured = float(np.max(np.abs(np.linalg.eigvals(raw))))
        if measured == 0.0:
            continue
        candidate = raw * (target_rho / measured)
        try:
            eig_decompose(candidate)
        except NotDiagonalizable:
            continue
        A = candidate
        break
    if A is None:
        raise GenerationExhausted(f"no diagonalizable matrix after {_MAX_MATRIX_ATTEMPTS} draws")

    b = rng.uniform(-1.0, 1.0, size=d) if spec.system_kind is SystemKind.AFFINE else np.zeros(d)

    M = rng.uniform(-1.0, 1.0, size=(d, d))
    Q = M.T @ M if spec.objective_kind.convex else -(M.T @ M) - 1e-3 * np.eye(d)
    q = np.zeros(d) if spec.objective_kind.homogeneous else rng.uniform(-1.0, 1.0, size=d)

    if spec.set_kind == "box":
        center = rng.uniform(-1.0, 1.0, size=d)
        radius = rng.uniform(0.1, 1.0, size=d)
        xin: Box | VRep = Box(center - radius, center + radius)
    else:
        xin = VRep(rng.uniform(-2.0, 2.0, size=(spec.vertex_count, d)))

    return ProblemInstance(A=A, b=b, Qmat=Q, qvec=q, Xin=xin, N=spec.N)


def _peak_mib(inst: ProblemInstance) -> float:
    """Allocator-level peak of one more solve of inst, traced apart from the timed one.

    Tracing that the caller already runs is left on, with its peak reset, and
    what it had traced before the solve is not counted.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solve(inst)
        return (tracemalloc.get_traced_memory()[1] - before) / (1024.0 * 1024.0)
    finally:
        if started:
            tracemalloc.stop()


def _solve_one(spec: BenchSpec, index: int) -> InstanceRecord:
    inst = random_instance(spec, index)
    start = time.perf_counter()
    try:
        report = solve(inst)
    except (ReachmaxError, ValueError, np.linalg.LinAlgError) as exc:
        return InstanceRecord(index, f"Error:{type(exc).__name__}", None, time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    return InstanceRecord(index, report.status.value, report, elapsed, _peak_mib(inst))


def run_bench(spec: BenchSpec) -> list[InstanceRecord]:
    """Solve the whole batch, one instance after another, into one record each.

    Per-instance failures become Error records instead of aborting the batch.
    """
    return [_solve_one(spec, i) for i in range(spec.instance_count)]
