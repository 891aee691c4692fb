"""Self-test of the benchmark's answer checks: right answers pass, corrupted ones are flagged.

    python3 perfbench/selftest.py

Solves a few instances of each workload shape (small ones, so it takes
seconds), checks that every true report passes perfbench/oracle.py, then
corrupts each report in several ways and checks that every corruption is
flagged. It also solves each convex instance again with the program's
vertex enumeration made to drop the vertex the true answer starts from, and
each concave one with the program's concave QPs stopped early, and checks
that the answer it then gives is flagged. Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager

import numpy as np

import run  # sets up the BLAS cap and the import path, as a benchmark run does
import gen
import oracle


def corruptions(rep, data):
    """(label, corrupted report) pairs; each one must be flagged."""
    if rep.status.value == "Failed":
        # claim a success at rank 0 with the first corner / point
        x = data["lower"] if "lower" in data else data["points"][0]
        nu = oracle.objective(data, x)
        yield "Failed reported as KDiag", dataclasses.replace(
            rep, status=type(rep.status)("KDiag"), nu_opt=nu, x_opt=x.copy(), k_opt=0, k_pos=0)
        return
    nu, x, k = rep.nu_opt, rep.x_opt, rep.k_opt
    yield "nu_opt perturbed by 1e-6 relative", dataclasses.replace(rep, nu_opt=nu + 1e-6 * max(1.0, abs(nu)))
    yield "k_opt off by one", dataclasses.replace(rep, k_opt=k + 1)
    yield "x_opt moved outside the set", dataclasses.replace(rep, x_opt=x + 10.0)
    yield "reported as Failed", dataclasses.replace(rep, status=type(rep.status)("Failed"))


@contextmanager
def dropping_vertex(row: int):
    """Make the program's vertex enumeration leave out one row, wherever the solve path calls it."""
    modules = (sys.modules["reachmax.geometry"], sys.modules["reachmax.solver"])
    original = modules[0].vertices

    def vertices(P, *args, **kwargs):
        return np.delete(original(P, *args, **kwargs), row, axis=0)

    try:
        for mod in modules:
            mod.vertices = vertices
        yield
    finally:
        for mod in modules:
            mod.vertices = original


@contextmanager
def loose_concave_qp(gap_tol: float = 1e-2):
    """Make the solve path stop its concave QPs early, at a duality gap of gap_tol."""
    mod = sys.modules["reachmax.solver"]
    original = mod.maximize_concave_qp

    def maximize_concave_qp(f, P, **kwargs):
        return original(f, P, gap_tol=gap_tol)

    try:
        mod.maximize_concave_qp = maximize_concave_qp
        yield
    finally:
        mod.maximize_concave_qp = original


def main() -> int:
    rm = run.import_program()
    # small has about one Failed answer in ten, so it gets enough instances to include some
    shapes = [dataclasses.replace(w, instances=40 if w.name == "small" else 6) for w in gen.WORKLOADS.values()]
    shapes = [dataclasses.replace(w, dim=min(w.dim, 6)) for w in shapes]
    bad = 0
    flagged = 0
    statuses: dict[str, int] = {}
    for w in shapes:
        for i, data in enumerate(gen.instance_data(w, seed=7)):
            rep = rm.solve(run.make_instance(rm, data))
            statuses[rep.status.value] = statuses.get(rep.status.value, 0) + 1
            problems = oracle.check(data, rep)
            if problems:
                print(f"FAIL {w.name}[{i}] true {rep.status.value} answer flagged: {problems}")
                bad += 1
            fakes = list(corruptions(rep, data))
            if rep.status.value != "Failed" and w.objective.startswith("ca"):
                with loose_concave_qp():
                    fakes.append(("concave QP stopped early", rm.solve(run.make_instance(rm, data))))
            elif rep.status.value != "Failed":
                # vertices come in the same order from the program and the oracle
                row = int(np.argmin(np.max(np.abs(oracle.initial_vertices(data) - rep.x_opt), axis=1)))
                with dropping_vertex(row):
                    fakes.append(("best vertex dropped", rm.solve(run.make_instance(rm, data))))
            for label, fake in fakes:
                if oracle.check(data, fake):
                    flagged += 1
                else:
                    print(f"FAIL {w.name}[{i}] corruption not flagged: {label}")
                    bad += 1
    print(f"selftest: answers {statuses}, {flagged} corruptions flagged, {bad} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
