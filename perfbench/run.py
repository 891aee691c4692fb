"""reachmax benchmark: one workload, one seed, one measuring mode per run.

    python3 perfbench/run.py --workload cube --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
./src and nothing else. It is a closed loop with one client: one process, one
Python thread, BLAS on one thread, and each solve starts after the previous
one returns. BLAS gets one thread, not one per core: a second one competes
with whatever else runs on the other core of a shared host, and the
host-speed slices below, timed on one thread, cannot follow that.

The workload's instances come from perfbench/gen.py and the seed. They are
solved through the public `reachmax.solve` in passes, with fresh instance
objects each pass, until --seconds have passed; the first pass always
completes, the last one stops where the time runs out. On a shared host
other tenants slow everything by up to 2x for minutes at a time, so every
timing is scaled to a reference host speed: between solves the run times a
fixed slice of numpy-only work (HostSpeed), and each pass's solve times are
multiplied by the slice's reference time over the median slice time of that
pass. Each instance's wall and CPU time is the median of its scaled solves.
The percentiles are Harrell-Davis estimates over the instances (the
samples), so solve_p90_ms has ten samples beyond it when a workload has 100
instances or more. Every answer is checked outside the
timed region: first-pass answers by perfbench/oracle.py, later answers by
bitwise comparison with the first pass.

Set-up is a fresh import of the program, the instance generation and one
warm-up solve. setup_s is the median of SETUP_ROUNDS such rounds, each scaled
by the host-speed slices on either side of it. It leaves out the start of
the interpreter and the import of numpy and of the benchmark's own modules,
which the program does not control. The record line holds the raw set-up
times and the scale of every pass.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (perfbench/spans.py) and the
tracing overhead, and writes the spans of the first traced pass to
perfbench/out/. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is a
JSON record of the run (host, sample counts, error and wrong fractions). The
exit code is 0 only when every solve returned a right answer.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 9  # set-up is timed this many times
SLICE_EVERY_S = 0.025  # a host-speed slice runs after each this many seconds of solving
SLICES_PER_SETUP = 8  # host-speed slices on each side of a set-up round
# The parts of each workload's host-speed slice: the kinds of work its solves
# spend their time on. Over four minutes on a shared 2-vCPU host, scaling by
# the four-part slice cut the drift of 15-second medians of solve time (sd of
# their log) from 0.113 to 0.055 on small, 0.077 to 0.031 on cloud and 0.127
# to 0.044 on concave, but raised cube's from 0.053 to 0.060; the corners part
# alone cut cube's to 0.022.
SLICE_PARTS = {
    "cloud": ("loop", "calls", "dedup", "corners"),
    "cube": ("corners",),
    "concave": ("loop", "calls", "dedup", "corners"),
    "small": ("loop", "calls", "dedup", "corners"),
}
PART_REF_MS = 1.0  # timings are scaled to a host on which each part takes this long


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))


# BLAS reads its thread count when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import oracle  # noqa: E402


def import_program():
    """Import reachmax afresh from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "reachmax" / "__init__.py").is_file():
        sys.exit(f"error: no reachmax sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "reachmax" or m.startswith("reachmax.")]:
        del sys.modules[name]
    import reachmax

    if Path(reachmax.__file__).resolve().parent != (src / "reachmax").resolve():
        sys.exit(f"error: imported reachmax from {reachmax.__file__}, not from {src}")
    return reachmax


class HostSpeed:
    """A fixed slice of work, timed between solves, that tells how fast the host runs just then.

    On a shared host the speed of everything drifts by up to 2x for minutes
    at a time, though not by the same factor for every kind of work. The
    slice is made of the kinds of work that the workload's solves spend their
    time on (SLICE_PARTS), so a solve and the slice slow down together, and a
    timing times the reference slice time over the median time of the slices
    taken around it reads the same whatever phase the host is in. The slice
    uses numpy only, so no change to the program changes it.
    """

    def __init__(self, workload: str):
        rng = np.random.default_rng(0)
        self.points = rng.integers(-4, 4, size=(1000, 6)).astype(float)
        self.rows = rng.standard_normal((2**14, 14))
        self.square = rng.standard_normal((14, 14))
        self.tiny = rng.standard_normal((3, 3))
        self.parts = [getattr(self, part) for part in SLICE_PARTS[workload]]
        self.ref_ms = PART_REF_MS * len(self.parts)

    def loop(self) -> None:
        """Interpreter speed: a pure-Python loop."""
        acc = 0
        for i in range(12000):
            acc += i * i % 7

    def calls(self) -> None:
        """The fixed cost of a numpy call: products of 3x3 matrices."""
        for _ in range(800):
            self.tiny @ self.tiny

    def dedup(self) -> None:
        """Sorting rows, as vertex deduplication does."""
        np.unique(self.points, axis=0)

    def corners(self) -> None:
        """A quadratic form over 16384 rows of 14, as evaluating a 14-cube's corners does."""
        np.einsum("ij,ij->i", self.rows @ self.square, self.rows)

    def slice(self) -> float:
        """Seconds one slice takes."""
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def scale(self, slices: list[float]) -> float:
        """The factor that turns a timing taken among these slices into one at reference speed."""
        return self.ref_ms / (statistics.median(slices) * 1e3)


def make_instance(rm, d: dict):
    """A fresh ProblemInstance on copies of the data, so no identity cache can hit across passes."""
    if "lower" in d:
        xin = rm.Box(d["lower"].copy(), d["upper"].copy())
    else:
        xin = rm.VRep(d["points"].copy())
    return rm.ProblemInstance(A=d["A"].copy(), b=d["b"].copy(), Qmat=d["Q"].copy(),
                              qvec=d["q"].copy(), Xin=xin, N=d["N"])


def setup(workload: str, seed: int, host: HostSpeed):
    """Import the program, generate the instances and warm up, SETUP_ROUNDS times.

    Returns the module and data of the last round and the seconds of each
    round, raw and scaled by the host-speed slices on either side of it.
    """
    w = gen.WORKLOADS[workload]
    raw, scaled = [], []
    before = [host.slice() for _ in range(SLICES_PER_SETUP)]
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        rm = import_program()
        data = gen.instance_data(w, seed)
        rm.solve(make_instance(rm, gen.warmup_data(w)))
        raw.append(time.perf_counter() - t0)
        after = [host.slice() for _ in range(SLICES_PER_SETUP)]
        scaled.append(raw[-1] * host.scale(before + after))
        before = after
    return rm, data, raw, scaled


def answer_key(rep) -> tuple:
    """Everything a report says, in a form that compares bit for bit."""
    x = None if rep.x_opt is None else np.asarray(rep.x_opt, dtype=float).tobytes()
    return (rep.status, rep.nu_opt, x, rep.k_opt, rep.k_pos, tuple(rep.K_trace), rep.iterations)


class Run:
    """Timed passes over one workload's instances, with every answer kept for checking."""

    def __init__(self, rm, data, host: HostSpeed):
        self.rm, self.data, self.host = rm, data, host
        n = len(data)
        self.first = [None] * n        # first report per instance
        self.key = [None] * n          # its answer key
        self.solves = [0] * n          # solves per instance
        self.mismatches = [0] * n      # later answers that differ from the first
        self.errors: list[str] = []
        self.passes = 0
        self.scales: list[float] = []  # host-speed scale of each pass

    def solve_one(self, i: int, solve) -> tuple[float, float]:
        inst = make_instance(self.rm, self.data[i])
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rep = solve(inst)
        except Exception as exc:  # a raising solve is counted, the run goes on
            rep = None
            self.errors.append(f"instance {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.solves[i] += 1
        if rep is not None:
            key = answer_key(rep)
            if self.key[i] is None:
                self.first[i], self.key[i] = rep, key
            elif key != self.key[i]:
                self.mismatches[i] += 1
        return t1 - t0, c1 - c0

    def timed_pass(self, solve, samples: list[list[tuple[float, float]]], deadline: float = float("inf")) -> None:
        """Solve the instances once, in order, adding each one's scaled (wall, CPU) seconds to samples[i].

        A pass after the first stops at the deadline. A host-speed slice runs
        after every SLICE_EVERY_S of solving; the pass's times are scaled by
        the median of its slices.
        """
        times, slices, since_slice = [], [], 0.0
        for i in range(len(self.data)):
            if self.passes and time.perf_counter() >= deadline:
                break
            times.append(self.solve_one(i, solve))
            since_slice += times[-1][0]
            if since_slice >= SLICE_EVERY_S:
                slices.append(self.host.slice())
                since_slice = 0.0
        slices.append(self.host.slice())
        scale = self.host.scale(slices)
        for i, (wall, cpu) in enumerate(times):
            samples[i].append((wall * scale, cpu * scale))
        self.scales.append(scale)
        self.passes += 1

    def check(self) -> tuple[int, list[str]]:
        """Wrong answers among all solves, and what was wrong with them."""
        wrong, notes = 0, []
        for i, rep in enumerate(self.first):
            if rep is None:
                continue
            problems = oracle.check(self.data[i], rep)
            if problems:
                wrong += self.solves[i] - self.mismatches[i]
                notes += [f"instance {i}: {p}" for p in problems]
            wrong += self.mismatches[i]
            if self.mismatches[i]:
                notes.append(f"instance {i}: {self.mismatches[i]} answers differ from the first")
        return wrong, notes


def medians(samples: list[list[tuple[float, float]]]) -> tuple[list[float], list[float]]:
    """Each instance's median scaled wall and CPU seconds."""
    return ([statistics.median(w for w, _ in x) for x in samples],
            [statistics.median(c for _, c in x) for x in samples])


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    Across seeds it varies less than a single interpolated order statistic,
    which jumps when the few instances near the quantile change.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 2**16 + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def host_record() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    rng = np.random.default_rng(0)
    E, M, V = rng.standard_normal((48, 48)), rng.standard_normal((160, 160)), rng.standard_normal((4096, 14))
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        np.linalg.eig(E)
        M @ M
        np.einsum("ij,ij->i", V @ M[:14, :14], V)
        times.append(time.perf_counter() - t0)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": _usable_cores(),
        "cpu_model": model,
        "calib_ms": statistics.median(times) * 1e3,
    }


def end_to_end(run: Run, args) -> dict:
    """Passes for --seconds (the first one whole); statistics over per-instance median times."""
    n = len(run.data)
    samples = [[] for _ in range(n)]
    deadline = time.perf_counter() + args.seconds
    while not run.passes or time.perf_counter() < deadline:
        run.timed_pass(run.rm.solve, samples, deadline)
    wall, cpu = medians(samples)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = [w * 1e3 for w in wall]
    return {
        "solve_p50_ms": (quantile(ms, 0.5), "ms"),
        "solve_p90_ms": (quantile(ms, 0.9), "ms"),
        "solves_per_s": (n / sum(wall), "1/s"),
        "cpu_ms_per_solve": (sum(cpu) * 1e3 / n, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(run: Run, args, workload) -> tuple[dict, dict]:
    """Alternate untraced and traced full passes; per-layer metrics from the traced ones."""
    from spans import ROOT as ROOT_SPAN, SPANS, Tracer

    tracer = Tracer()
    traced_solve = tracer.wrap(run.rm.solve, ROOT_SPAN)
    plain, traced = [[] for _ in run.data], [[] for _ in run.data]
    first_traced = None
    deadline = time.perf_counter() + args.seconds
    while first_traced is None or time.perf_counter() < deadline:
        run.timed_pass(run.rm.solve, plain)
        lo = len(tracer)
        with tracer.installed():
            run.timed_pass(traced_solve, traced)
        first_traced = first_traced or (lo, len(tracer))

    agg = tracer.aggregate()
    n = agg[ROOT_SPAN]["calls"]
    solve_total = agg[ROOT_SPAN]["total"]
    m: dict[str, tuple] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    v = agg["geometry.vertices"]
    put("geometry.vertices.calls", v["calls"] / n, "count")
    put("geometry.vertices.ms", v["total"] * 1e3 / n, "ms")
    put("geometry.vertices.rows_in", v["rows_in"] / n, "count")
    put("geometry.vertices.rows_out", v["rows_out"] / n, "count")
    put("geometry.vertices.bytes", v["max_rows_out"] * workload.dim * 8, "B")
    put("geometry.mu.self_ms", agg["geometry.mu"]["self"] * 1e3 / n, "ms")
    cv = agg["qpcore.maximize_convex_vertices"]
    put("qpcore.maximize_convex_vertices.calls", cv["calls"] / n, "count")
    put("qpcore.maximize_convex_vertices.rows", cv["rows_in"] / n, "count")
    put("qpcore.maximize_convex_vertices.ms_per_rank", cv["total"] * 1e3 / max(cv["calls"], 1), "ms/rank")
    cc = agg["qpcore.maximize_concave_qp"]
    put("qpcore.maximize_concave_qp.calls", cc["calls"] / n, "count")
    put("qpcore.maximize_concave_qp.ms_per_rank", cc["total"] * 1e3 / max(cc["calls"], 1), "ms/rank")
    put("qpcore.SteppedObjective.ms", agg["qpcore.SteppedObjective"]["total"] * 1e3 / n, "ms")
    put("qpcore.classify.ms", agg["qpcore.classify"]["total"] * 1e3 / n, "ms")
    put("solver.solve.ms", solve_total * 1e3 / n, "ms")
    put("solver.solve.self_ms", agg[ROOT_SPAN]["self"] * 1e3 / n, "ms")
    put("linalg.eig_decompose.ms", agg["linalg.eig_decompose"]["total"] * 1e3 / n, "ms")
    put("linalg.gram_inverse.ms", agg["linalg.gram_inverse"]["total"] * 1e3 / n, "ms")
    put("bounds.build_spectral_data.self_ms", agg["bounds.build_spectral_data"]["self"] * 1e3 / n, "ms")
    put("solver.reduce_affine.ms", agg["solver.reduce_affine"]["total"] * 1e3 / n, "ms")
    answered = [rep for rep in run.first if rep is not None] or [None]
    put("bounds.k_diag.calls", sum(len(rep.K_trace) for rep in answered if rep) / len(answered), "count")
    put("solver.ranks", sum(rep.iterations for rep in answered if rep) / len(answered), "count")
    for span in SPANS:
        put(f"{span}.share", agg[span]["self"] / solve_total, "frac")
    put("trace.overhead_frac", sum(medians(traced)[0]) / sum(medians(plain)[0]), "ratio")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file, *first_traced)
    extra = {"absent_hooks": tracer.absent, "traced_solves": n,
             "spans_file": str(spans_file.relative_to(ROOT))}
    return m, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    host = HostSpeed(args.workload)
    rm, data, setup_raw, setup_scaled = setup(args.workload, args.seed, host)
    workload = gen.WORKLOADS[args.workload]
    run = Run(rm, data, host)
    extra = {}
    if args.trace:
        metrics, extra = per_layer(run, args, workload)
    else:
        metrics = end_to_end(run, args)
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        extra["setup_rounds_raw_s"] = setup_raw
        extra["setup_rounds_scaled_s"] = setup_scaled
    extra["pass_scales"] = run.scales

    wrong, notes = run.check()

    attempted = sum(run.solves)
    failed = len(run.errors) + wrong
    statuses = {}
    for rep in run.first:
        if rep is not None:
            key = getattr(rep.status, "value", str(rep.status))
            statuses[key] = statuses.get(key, 0) + 1
    record = {
        "workload": args.workload,
        "params": {k: v for k, v in workload.__dict__.items() if k != "name"},
        "seed": args.seed,
        "trace": args.trace,
        "instances": len(data),
        "passes": run.passes,
        "solves": sum(run.solves),
        "statuses": statuses,
        "error_frac": len(run.errors) / attempted,
        "wrong_frac": wrong / attempted,
        "problems": (run.errors + notes)[:20],
        "host": host_record(),
        **extra,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
