"""Repeat the benchmark over seeds and write a baseline file with its spreads.

    python3 perfbench/collect.py --out perfbench/BENCH_seed.json

For each workload in BENCHMARK.json it runs the benchmark command with
--trace 0 once per seed (1..SEEDS) and reports, per end-to-end metric, the
median, the quartiles of statistics.quantiles(values, n=4) and the spread
(q3 - q1) / median against the metric's bound. It then runs --trace 1 twice on
seed 1, keeps the per-layer table of the first run, and checks that every
count-valued per-layer metric repeats exactly. Exits 1 when a run fails,
a spread exceeds its bound or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "B")
SEEDS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; the record line gets the run's wall time as elapsed_s."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    record = json.loads(lines[-2])
    record["elapsed_s"] = time.perf_counter() - t0
    return record, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report = {"command": spec["command"], "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, SEEDS + 1):
            record, result = run_once(spec, name, seed, 0)
            runs.append({"seed": seed, "instances": record["instances"], "passes": record["passes"],
                         "error_frac": record["error_frac"], "wrong_frac": record["wrong_frac"],
                         "calib_ms": record["host"]["calib_ms"], "elapsed_s": record["elapsed_s"],
                         "result": result})
            report.setdefault("host", record["host"])
            print(f"{name} seed {seed} ({record['elapsed_s']:.1f} s, {record['passes']} passes): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        e2e = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            e2e[metric] = {"unit": runs[0]["result"]["metrics"][metric]["unit"], "median": med,
                           "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER BOUND")
            print(f"  {metric:18s} median {med:.5g}  spread {spread:.3f}  bound {bound}  {flag}")
            if spread > bound:
                ok = False

        traced = [run_once(spec, name, 1, 1) for _ in range(2)]
        (rec_a, res_a), (_, res_b) = traced
        mismatched = [k for k, v in res_a["metrics"].items()
                      if v["unit"] in EXACT_UNITS and v["value"] != res_b["metrics"][k]["value"]]
        print(f"  per-layer counts repeat exactly: {not mismatched} {mismatched or ''}")
        ok = ok and not mismatched and all(r["result"]["correct"] for r in runs)
        report["workloads"][name] = {
            "end_to_end": e2e,
            "runs": runs,
            "per_layer": res_a["metrics"],
            "per_layer_absent_hooks": rec_a.get("absent_hooks", []),
            "per_layer_counts_repeat": not mismatched,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
