"""Command-line front end: solve instance files, run benchmark batches, profile sequences."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .benchgen import BenchSpec, InstanceRecord, ObjectiveKind, SystemKind, run_bench
from .errors import InvalidInstanceFile, ReachmaxError
from .geometry import Box, Polytope, VRep
from .seqlab import FiniteC0Sequence, NoRank, rank_profile
from .solver import DEFAULT_N, ProblemInstance, SolveReport, SolveStatus, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED = 2


def _leaves(node):
    """Every value of a parsed JSON document that is not an object or array, in document order, without recursion."""
    nodes = [node]
    while nodes:
        node = nodes.pop()
        if isinstance(node, dict):
            nodes.extend(reversed(node.values()))
        elif isinstance(node, list):
            nodes.extend(reversed(node))
        else:
            yield node


def _floats(node, name: str) -> np.ndarray:
    """A numeric field of the file as a float array; numpy parses "0.5", " 1 " and "inf", so strings are refused."""
    text = next((v for v in _leaves(node) if isinstance(v, str)), None)
    if text is not None:
        raise InvalidInstanceFile(f"{name} holds the string {text!r}, and numbers must be JSON numbers")
    return np.asarray(node, dtype=float)


def _parse_initial_set(node) -> Polytope:
    if not isinstance(node, dict) or "type" not in node:
        raise InvalidInstanceFile('initial_set must be an object with a "type" key')
    kind = node["type"]
    try:
        if kind == "box":
            return Box(_floats(node["lower"], "lower"), _floats(node["upper"], "upper"))
        if kind == "vertices":
            return VRep(_floats(node["points"], "points"))
    except KeyError as exc:
        raise InvalidInstanceFile(f"initial_set is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInstanceFile(f"invalid initial_set: {exc}") from exc
    raise InvalidInstanceFile(f"unknown initial_set type {kind!r}")


def _read_json(path: str):
    """The parsed contents of a UTF-8 JSON file; any failure to read or parse it is InvalidInstanceFile.

    json.loads recurses once per level of nesting, so a document nested
    deeper than the interpreter's recursion limit is refused too. No field of
    an instance or sequence file is boolean, and numpy reads true and false
    as 1 and 0, so a boolean anywhere in the document is refused.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInstanceFile(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInstanceFile(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceFile(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise InvalidInstanceFile(f"{path} is nested too deeply to parse") from exc
    if any(isinstance(v, bool) for v in _leaves(doc)):
        raise InvalidInstanceFile(f"{path} holds a boolean, and no field of the file is boolean")
    return doc


def load_instance(path: str, n_override: int | None = None) -> ProblemInstance:
    """Parse a JSON instance file into a ProblemInstance."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InvalidInstanceFile("instance file must contain a JSON object")
    for key in ("A", "Q", "initial_set"):
        if key not in doc:
            raise InvalidInstanceFile(f'missing required key "{key}"')
    try:
        A = _floats(doc["A"], "A")
        Q = _floats(doc["Q"], "Q")
        if A.ndim != 2:
            raise InvalidInstanceFile("A must be a rectangular array of arrays")
        d = A.shape[0]
        b = _floats(doc.get("b", np.zeros(d)), "b")
        q = _floats(doc.get("q", np.zeros(d)), "q")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInstanceFile(f"non-numeric or ragged array: {exc}") from exc
    xin = _parse_initial_set(doc["initial_set"])
    n = n_override if n_override is not None else doc.get("N", DEFAULT_N)
    try:
        return ProblemInstance(A=A, b=b, Qmat=Q, qvec=q, Xin=xin, N=n)
    except ValueError as exc:
        raise InvalidInstanceFile(str(exc)) from exc


def report_to_dict(report: SolveReport, n_cap: int) -> dict:
    return {
        "status": report.status.value,
        "nu_opt": report.nu_opt,
        "x_opt": None if report.x_opt is None else [float(v) for v in report.x_opt],
        "k_opt": report.k_opt,
        "k_pos": report.k_pos,
        "K_trace": [[int(k), int(K)] for k, K in report.K_trace],
        "iterations": report.iterations,
        "N": n_cap,
    }


def _print_report_pretty(report: SolveReport, n_cap: int) -> None:
    print(f"status      {report.status.value}")
    if report.status is SolveStatus.FAILED:
        print(f"N           {n_cap}")
        print(f"iterations  {report.iterations}")
        return
    print(f"nu_opt      {report.nu_opt!r}")
    print(f"k_opt       {report.k_opt}")
    print(f"x_opt       {None if report.x_opt is None else [float(v) for v in report.x_opt]}")
    print(f"k_pos       {report.k_pos}")
    print(f"K_trace     {report.K_trace}")
    print(f"iterations  {report.iterations}")


def cmd_solve(args) -> int:
    try:
        inst = load_instance(args.path, args.n)
        report = solve(inst)
    except (ReachmaxError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps(report_to_dict(report, inst.N)))
    else:
        _print_report_pretty(report, inst.N)
    return EXIT_FAILED if report.status is SolveStatus.FAILED else EXIT_OK


def _parse_set_flag(text: str) -> tuple[str, int | None]:
    if text == "box":
        return "box", None
    if text.startswith("vertices:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"invalid vertex count in {text!r}")
        return "vertices", count
    raise ValueError(f'--set must be "box" or "vertices:<count>", got {text!r}')


def _rank_json(rank) -> int | str:
    return rank.value if isinstance(rank, NoRank) else int(rank)


def aggregate_row(spec: BenchSpec, records: list[InstanceRecord]) -> dict[str, object]:
    """The aggregate CSV's header and row for a batch, as column name to cell, computed from its records.

    status_c_k_f counts the Corollary1, KDiag and Failed reports; errors
    counts the records without one. avg_iter / max_iter are the final
    stopping rank of the KDiag runs, and the gap columns subtract the
    attaining rank from it. Memory is the allocator-level peak of a second,
    traced solve of each instance, so the timed solve runs untraced. An
    aggregate over no value is "".
    """
    reports = [r.report for r in records if r.report is not None]
    statuses = [rep.status for rep in reports]
    kdiag = [rep for rep in reports if rep.status is SolveStatus.K_DIAG and rep.K_trace]
    k_pos = [rep.k_pos for rep in reports if rep.k_pos is not None]
    finals = [rep.K_trace[-1][1] for rep in kdiag]
    gaps = [rep.K_trace[-1][1] - rep.k_opt for rep in kdiag]

    def mean(values, digits: int) -> str:
        return f"{float(np.mean(values)):.{digits}f}" if values else ""

    return {
        "obj_type": spec.objective_kind.name,
        "dim": spec.dim,
        "vertex_count": 2**spec.dim if spec.set_kind == "box" else spec.vertex_count,
        "status_c_k_f": "/".join(
            str(statuses.count(s)) for s in (SolveStatus.COROLLARY_ONE, SolveStatus.K_DIAG, SolveStatus.FAILED)
        ),
        "avg_time_s": mean([r.time_s for r in records], 6),
        "avg_mem_mib": mean([r.mem_mib for r in records if r.mem_mib is not None], 3),
        "avg_k_pos": mean(k_pos, 2),
        "max_k_pos": max(k_pos, default=""),
        "avg_iter": mean(finals, 2),
        "max_iter": max(finals, default=""),
        "avg_gap": mean(gaps, 2),
        "max_gap": max(gaps, default=""),
        "errors": len(records) - len(reports),
    }


def cmd_bench(args) -> int:
    try:
        set_kind, count = _parse_set_flag(args.set)
        spec = BenchSpec(
            dim=args.dim,
            system_kind=SystemKind(args.kind),
            objective_kind=ObjectiveKind(args.objective),
            set_kind=set_kind,
            vertex_count=count,
            instance_count=args.count,
            seed=args.seed,
            N=args.n,
        )
    except ValueError as exc:
        print(f"InvalidBenchSpec: {exc}", file=sys.stderr)
        return EXIT_ERROR

    out = Path(args.out)
    per_instance = out.with_name(out.stem + ".instances" + (out.suffix or ".csv"))
    with ExitStack() as files:
        # both outputs are opened before the batch runs, so an unwritable path costs no solves
        try:
            agg_fh = files.enter_context(out.open("w", newline="", encoding="utf-8"))
            inst_fh = files.enter_context(per_instance.open("w", newline="", encoding="utf-8"))
        except OSError as exc:
            print(f"{type(exc).__name__}: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
            return EXIT_ERROR
        records = run_bench(spec)
        agg = aggregate_row(spec, records)
        w = csv.writer(agg_fh)
        w.writerow(agg.keys())
        w.writerow(agg.values())
        w = csv.writer(inst_fh)
        w.writerow(["index", "status", "nu_opt", "k_opt", "k_pos", "K_init", "K_final", "iterations", "time_s"])
        for r in records:
            rep = r.report
            if rep is None:
                cells = [None] * 6
            else:
                ends = (rep.K_trace[0][1], rep.K_trace[-1][1]) if rep.K_trace else (None, None)
                nu = None if rep.nu_opt is None else repr(rep.nu_opt)
                cells = [nu, rep.k_opt, rep.k_pos, *ends, rep.iterations]
            w.writerow([r.index, r.status, *("" if c is None else c for c in cells), f"{r.time_s:.6f}"])
    print(",".join(str(v) for v in agg.values()))
    return EXIT_OK


def cmd_analyze_seq(args) -> int:
    try:
        doc = _read_json(args.path)
        if not isinstance(doc, list) or not doc:
            raise InvalidInstanceFile("expected a nonempty JSON array of numbers")
        seq = FiniteC0Sequence(_floats(doc, "the sequence"))
    except (InvalidInstanceFile, TypeError, ValueError, OverflowError) as exc:
        print(f"InvalidInstanceFile: {exc}", file=sys.stderr)
        return EXIT_ERROR
    profile = rank_profile(seq)
    print(json.dumps({
        "n": len(seq),
        "k_geq": _rank_json(profile.k_geq),
        "k_gt": _rank_json(profile.k_gt),
        "K_geq": _rank_json(profile.K_geq),
        "K_gt": _rank_json(profile.K_gt),
        "sup_value": profile.sup_value,
        "argmax_set": sorted(profile.argmax_set),
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reachmax")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a JSON instance file")
    p_solve.add_argument("path")
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="machine-readable single-line output")
    group.add_argument("--pretty", action="store_true", help="human-readable output (default)")
    p_solve.add_argument("--n", type=int, default=None, help="override the positivity-search cap")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a randomized benchmark batch")
    p_bench.add_argument("--dim", type=int, required=True)
    p_bench.add_argument("--kind", choices=[k.value for k in SystemKind], required=True)
    p_bench.add_argument("--objective", choices=[k.value for k in ObjectiveKind], required=True)
    p_bench.add_argument("--set", default="box", help='"box" or "vertices:<count>"')
    p_bench.add_argument("--count", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--n", type=int, default=DEFAULT_N, help="positivity-search cap")
    p_bench.add_argument("--out", required=True, help="aggregate CSV path")
    p_bench.set_defaults(func=cmd_bench)

    p_seq = sub.add_parser("analyze-seq", help="rank profile of a JSON array of reals")
    p_seq.add_argument("path")
    p_seq.set_defaults(func=cmd_analyze_seq)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
