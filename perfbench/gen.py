"""Seeded instance generator for the benchmark workloads.

It follows the random-instance protocol of the paper's experiments: the
system matrix is a uniform random matrix rescaled to a target spectral
radius and redrawn until it is comfortably diagonalizable, the quadratic
part is M^T M for a convex objective and -M^T M - 1e-3 I for a concave one,
and the initial set is a random box or a random point cloud. It depends on
numpy only, so an edit to the program (its own generator included) cannot
change the benchmark inputs.

Target spectral radii are stratified: instance i of n draws its radius
uniformly from the i-th of n equal slices of the workload's range, in a
seeded random order. Each radius is still uniform over the range, but every
seed covers the range evenly, which keeps per-run medians steady across
seeds; the number of ranks a solve needs depends mostly on the radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The program rejects cond(U) > 1e10; the generator keeps a wide margin below.
COND_LIMIT = 1e8
MAX_MATRIX_DRAWS = 1000


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload; BENCHMARK.json gives the reason each of its workloads exists."""

    name: str
    objective: str      # cxh (convex, homogeneous), cxnh (convex, with a linear term) or canh (concave, with one)
    affine: bool        # b != 0
    dim: int
    set_kind: str       # "box" or "cloud"
    rho: tuple[float, float]
    instances: int      # distinct instances per run, solved in repeated passes
    cloud_points: int = 0
    N: int = 100


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cloud", "cxnh", True, 6, "cloud", (0.3, 0.97), 100, cloud_points=500),
        Workload("cube", "cxh", False, 14, "box", (0.9, 0.99), 200),
        # Not in BENCHMARK.json: over ten seeds its p90 and mean-based figures
        # spread 0.12-0.18 of their median, too near the 0.25 bound to hold.
        Workload("concave", "canh", True, 8, "box", (0.3, 0.9), 300),
        Workload("small", "cxnh", True, 3, "box", (0.3, 0.97), 1000, N=20),
    )
}


def _diagonalizable(A: np.ndarray) -> bool:
    w, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        return False
    recon = np.max(np.abs(A - (V * w) @ np.linalg.inv(V)))
    return bool(recon <= 1e-11 * (1.0 + np.max(np.abs(A))))


def _system_matrix(rng: np.random.Generator, d: int, target_rho: float) -> np.ndarray:
    for _ in range(MAX_MATRIX_DRAWS):
        raw = rng.uniform(-1.0, 1.0, size=(d, d))
        measured = float(np.max(np.abs(np.linalg.eigvals(raw))))
        if measured == 0.0:
            continue
        A = raw * (target_rho / measured)
        if _diagonalizable(A):
            return A
    raise RuntimeError(f"no diagonalizable {d}x{d} matrix after {MAX_MATRIX_DRAWS} draws")


def warmup_data(w: Workload) -> dict:
    """One instance of the workload's shape, the same for every seed, at the low end of its radius range."""
    return _instance(w, np.random.default_rng([2**32, w.dim]), w.rho[0])


def _instance(w: Workload, rng: np.random.Generator, target_rho: float) -> dict:
    d = w.dim
    A = _system_matrix(rng, d, target_rho)
    b = rng.uniform(-1.0, 1.0, size=d) if w.affine else np.zeros(d)
    M = rng.uniform(-1.0, 1.0, size=(d, d))
    Q = M.T @ M if w.objective.startswith("cx") else -M.T @ M - 1e-3 * np.eye(d)
    q = rng.uniform(-1.0, 1.0, size=d) if w.objective.endswith("nh") else np.zeros(d)
    inst = {"A": A, "b": b, "Q": Q, "q": q, "N": w.N}
    if w.set_kind == "box":
        center = rng.uniform(-1.0, 1.0, size=d)
        radius = rng.uniform(0.1, 1.0, size=d)
        inst["lower"], inst["upper"] = center - radius, center + radius
    else:
        inst["points"] = rng.uniform(-2.0, 2.0, size=(w.cloud_points, d))
    return inst


def instance_data(w: Workload, seed: int) -> list[dict]:
    """The workload's instances for `seed` as plain numpy arrays.

    Each entry has A, b, Q, q, N and either lower/upper (box) or points
    (cloud). The same (workload, seed) always gives bit-identical data.
    """
    seed &= 2**64 - 1  # numpy seeds must be non-negative
    root = np.random.default_rng([seed, w.dim, w.instances])
    slices = root.permutation(w.instances)
    lo, hi = w.rho
    out = []
    for i in range(w.instances):
        rng = np.random.default_rng([seed, i])
        target_rho = lo + (hi - lo) * (slices[i] + rng.uniform()) / w.instances
        out.append(_instance(w, rng, target_rho))
    return out
