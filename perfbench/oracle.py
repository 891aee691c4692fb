"""Answer checks for benchmark solves, made outside the timed region.

The reference answer is built from the raw instance data with numpy alone,
sharing no code with the program. For a convex objective the maximum over
the k-th image of the initial set is attained at the image of one of its
vertices (a box's corners, or a cloud's points), so the reference takes, at
each rank, the best value over the images of all of them under
x_{k+1} = A x_k + b (computed as a quadratic form in the initial point,
rank_forms). For a strictly concave objective over a box it takes, at each rank,
the stationary point of the objective on every face of the box and keeps
the best one that lies in the box (concave_reference).

An answer is right when
  * a KDiag or CorollaryOne answer has x_opt in the initial set, simulating
    from x_opt for k_opt steps reproduces nu_opt, and the reference over
    ranks 0..K_final (0..N when K_trace is empty) agrees on nu_opt and
    attains it at rank k_opt (the first such rank, or one whose value ties
    with it);
  * a Failed answer has no strictly positive reduced value over ranks 0..N:
    the reference's best value over those ranks does not exceed the
    objective at the fixed point (I - A)^-1 b, which is what the reduction
    subtracts.
Values agree when they differ by at most REL_TOL relative to max(1, |value|).
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-7
# Initial-set membership tolerance, relative to max(1, |bound|).
SET_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def objective(data: dict, x: np.ndarray) -> float:
    return float(x @ data["Q"] @ x + data["q"] @ x)


def in_initial_set(data: dict, x: np.ndarray) -> bool:
    if "lower" in data:
        lo, hi = data["lower"], data["upper"]
        slack = SET_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        return bool(np.all(x >= lo - slack) and np.all(x <= hi + slack))
    # a convex maximum over a point cloud is attained at one of its points
    pts = data["points"]
    dist = np.max(np.abs(pts - x), axis=1)
    return bool(np.min(dist) <= SET_TOL * max(1.0, float(np.max(np.abs(pts)))))


def simulate(data: dict, x0: np.ndarray, steps: int) -> np.ndarray:
    x = np.array(x0, dtype=float)
    for _ in range(steps):
        x = data["A"] @ x + data["b"]
    return x


def initial_vertices(data: dict) -> np.ndarray:
    if "lower" in data:
        grid = np.meshgrid(*zip(data["lower"], data["upper"]), indexing="ij")
        return np.stack(grid, axis=-1).reshape(-1, len(grid))
    return data["points"]


def rank_forms(data: dict, horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H_k, h_k and f(c_k) with f(A^k x + c_k) = x^T H_k x + h_k^T x + f(c_k), for k = 0..horizon.

    c_k is where x_k lands from x_0 = 0, so x_k = A^k x_0 + c_k.
    """
    A, b, Q, q = data["A"], data["b"], data["Q"], data["q"]
    d = len(b)
    P, c = np.empty((horizon + 1, d, d)), np.empty((horizon + 1, d))
    P[0], c[0] = np.eye(d), 0.0
    for k in range(1, horizon + 1):
        P[k], c[k] = A @ P[k - 1], A @ c[k - 1] + b
    H = P.transpose(0, 2, 1) @ Q @ P
    h = np.einsum("kd,kde->ke", 2.0 * c @ Q + q, P)
    fc = np.einsum("kd,kd->k", c @ Q + q, c)
    return H, h, fc


def reference(data: dict, horizon: int) -> np.ndarray:
    """Best objective value at each rank 0..horizon, from the raw data."""
    if np.linalg.eigvalsh(data["Q"])[-1] < 0.0:
        return concave_reference(data, horizon)
    V = initial_vertices(data)
    H, h, fc = rank_forms(data, horizon)
    return np.array([np.max(np.einsum("ij,ij->i", V @ H[k], V) + V @ h[k]) + fc[k] for k in range(horizon + 1)])


def concave_reference(data: dict, horizon: int) -> np.ndarray:
    """Best value of a strictly concave objective at each rank 0..horizon, over a box.

    The rank-k value g(x) = x^T H_k x + h_k^T x + f(c_k) (rank_forms) is
    concave in x, and its maximum over the box is the stationary point of g
    on the face of the box that holds it. Every face (each coordinate free, at
    its lower or at its upper bound) gives one stationary point; the best of
    those inside the box is the maximum. Faces with the same number of free
    coordinates, and all ranks, are solved together. At a rank where a face's
    system is singular (A^k has underflowed in some direction) that face is
    skipped; the corners are always kept, so the value there can only be too low.
    """
    lo, hi = data["lower"], data["upper"]
    d = len(lo)
    H, h, fc = rank_forms(data, horizon)
    slack = SET_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    free_sets = (np.arange(2**d)[:, None] >> np.arange(d)) & 1 == 1
    best = np.full(horizon + 1, -np.inf)
    for f in range(d + 1):
        group = free_sets[free_sets.sum(axis=1) == f]
        order = np.argsort(~group, axis=1, kind="stable")     # free coordinates first
        F, B = order[:, :f], order[:, f:]
        bits = (np.arange(2 ** (d - f))[:, None] >> np.arange(d - f)) & 1 == 1
        XB = np.where(bits, hi[B][:, None, :], lo[B][:, None, :])   # face, bound pattern, fixed coordinate
        XB = np.broadcast_to(XB, (horizon + 1,) + XB.shape)
        inside = np.ones(XB.shape[:3], dtype=bool)
        Y = XB[..., :0]
        if f:
            # stationary in the free coordinates: 2 H_FF y = -h_F - 2 H_FB x_B
            HF = H[:, F[:, :, None], order[:, None, :]]
            rhs = -(h[:, F][..., None] / 2.0 + HF[..., f:] @ XB.transpose(0, 1, 3, 2))
            Y = _solve_each(HF[..., :f], rhs).transpose(0, 1, 3, 2)
            inside = np.all((Y >= lo[F][:, None, :] - slack[F][:, None, :])
                            & (Y <= hi[F][:, None, :] + slack[F][:, None, :]), axis=3)
            Y = np.clip(np.nan_to_num(Y), lo[F][:, None, :], hi[F][:, None, :])
        X = np.take_along_axis(np.concatenate([Y, XB], axis=3),
                               np.argsort(order, axis=1)[None, :, None, :], axis=3)
        X = X.reshape(horizon + 1, -1, d)
        values = np.sum((X @ H + h[:, None, :]) * X, axis=2) + fc[:, None]
        best = np.maximum(best, np.max(np.where(inside.reshape(values.shape), values, -np.inf), axis=1))
    return best


def _solve_each(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack, with NaN for each singular system instead of an error."""
    with np.errstate(all="ignore"):
        try:
            return np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            flat_M, flat_rhs = M.reshape((-1,) + M.shape[-2:]), rhs.reshape((-1,) + rhs.shape[-2:])
            out = np.full(flat_rhs.shape, np.nan)
            for i in range(len(flat_M)):
                try:
                    out[i] = np.linalg.solve(flat_M[i], flat_rhs[i])
                except np.linalg.LinAlgError:
                    pass
            return out.reshape(rhs.shape)


def check(data: dict, report) -> list[str]:
    """Problems found with one answer; an empty list means it is right."""
    status = getattr(report.status, "value", report.status)
    if status == "Failed":
        best = float(np.max(reference(data, data["N"])))
        d = data["A"].shape[0]
        fixed = np.linalg.solve(np.eye(d) - data["A"], data["b"])
        offset = objective(data, fixed)
        if best > offset + SET_TOL * max(1.0, abs(offset)):
            return [f"Failed, but rank values reach {best!r} above the fixed-point value {offset!r}"]
        return []
    if status not in ("KDiag", "CorollaryOne"):
        return [f"unknown status {status!r}"]

    problems = []
    x = np.asarray(report.x_opt, dtype=float)
    nu, k = float(report.nu_opt), int(report.k_opt)
    if x.shape != data["b"].shape or not np.all(np.isfinite(x)):
        return [f"x_opt has shape {x.shape} or non-finite entries"]
    if not in_initial_set(data, x):
        problems.append("x_opt is outside the initial set")
    simulated = objective(data, simulate(data, x, k))
    if not close(simulated, nu):
        problems.append(f"trajectory from x_opt gives {simulated!r} at rank {k}, report says {nu!r}")
    horizon = report.K_trace[-1][1] if report.K_trace else data["N"]
    ref = reference(data, horizon)
    ref_k = int(np.argmax(ref))
    ref_nu = float(ref[ref_k])
    if not close(ref_nu, nu):
        problems.append(f"reference over 0..{horizon} gives {ref_nu!r}, report says {nu!r}")
    if k != ref_k and not (0 <= k <= horizon and close(float(ref[k]), ref_nu)):
        problems.append(f"reference attains the maximum at rank {ref_k}, report says {k}")
    return problems
