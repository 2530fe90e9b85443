"""Command-line surface.

Subcommands: analyze, decide, construct, obstacle, enumerate,
verify-paper.  Exit codes: 0 success (for ``decide``: metric),
10 non-metric, 1 failed verification claims, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import serialization as ser
from .constructions import c4_based_metric, odd_cycle_metric, p5bar_minus_a_metric, path_based_metric
from .decider import DecideOptions, decide_metric, decide_metric_naive
from .enumeration import canonical_form, enumerate_minimal_nonmetric
from .hypergraphs import based_hypergraph
from .metric import (
    MetricValidationError,
    betweenness_triples,
    hypergraph_of,
    line,
    line_partition,
)
from .obstacles import ObstacleRouteInapplicable, certify_obstacle
from .replay import ReplayContext, run_manifest

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_NONMETRIC = 10

# Largest ``n`` that ``decide`` accepts.  Every leaf LP has C(n, 2)
# variables and up to 3 * C(n, 3) rows, so a tiny file naming a huge ``n``
# would otherwise exhaust time or memory.  The paper's claims decide at
# most 9 vertices (based C8), and based C10 on 11 already takes minutes.
MAX_DECIDE_VERTICES = 16

# Largest worker count for ``-j`` / ``GEODESIC_THREADS``: workers beyond the
# number of CPUs only add process start-up and duplicated search.
MAX_THREADS = os.cpu_count() or 1


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= value <= MAX_THREADS:
        raise argparse.ArgumentTypeError(f"{value} is outside 1..{MAX_THREADS} (the CPU count)")
    return value


def _default_threads() -> str:
    """The ``-j`` default: ``GEODESIC_THREADS`` or 1, checked by argparse like ``-j``."""
    return os.environ.get("GEODESIC_THREADS", "1")


def _read_json(path: str) -> dict:
    try:
        return ser.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        print(text)
    else:
        Path(out).write_text(text + "\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        m = ser.metric_from_dict(_read_json(args.metric_file))
    except (ValueError, MetricValidationError) as exc:
        print(f"error: invalid metric: {exc}", file=sys.stderr)
        return EXIT_ERROR
    facts = sorted(betweenness_triples(m), key=lambda f: (f.u, f.v, f.w))
    print(f"points ({len(m.points)}): {' '.join(m.points)}")
    print(f"betweenness facts ({len(facts)}):")
    for f in facts:
        print(f"  {f}")
    h = hypergraph_of(m)
    print(f"collinear triples ({len(h.triples)}):")
    for t in h.sorted_triples():
        print("  {" + ", ".join(m.points[v] for v in t) + "}")
    print("lines:")
    pairs = [(p, q) for i, p in enumerate(m.points) for q in m.points[i + 1 :]]
    for p, q in pairs:
        members = sorted(line(m, p, q))
        print(f"  line({p},{q}) = {{{', '.join(members)}}}")
    eq = line_partition(m, list(m.points))
    print(f"line partition of all pairs: {len(eq.blocks)} block(s)")
    for block in sorted(eq.blocks, key=lambda b: (-len(b), sorted(b))):
        shown = ", ".join(f"{{{m.points[i]},{m.points[j]}}}" for i, j in sorted(block))
        print(f"  [{len(block)}] {shown}")
    return EXIT_OK


def cmd_decide(args: argparse.Namespace) -> int:
    try:
        h = ser.hypergraph_from_dict(_read_json(args.hypergraph_file))
    except ValueError as exc:
        print(f"error: invalid hypergraph: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if h.n > MAX_DECIDE_VERTICES:
        print(f"error: {h.n} vertices; decide accepts at most {MAX_DECIDE_VERTICES}", file=sys.stderr)
        return EXIT_ERROR
    try:
        if args.naive:
            verdict = decide_metric_naive(h)
        else:
            verdict = decide_metric(h, DecideOptions(threads=args.threads))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(ser.dumps(ser.verdict_to_dict(verdict), compact=args.compact), args.output)
    return EXIT_OK if verdict.metric else EXIT_NONMETRIC


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        if args.name == "odd-cycle":
            if args.s is None:
                raise ValueError("odd-cycle needs --s")
            m = odd_cycle_metric(args.s)
        elif args.name == "path":
            if args.k is None:
                raise ValueError("path needs --k")
            m = path_based_metric(args.k)
        elif args.name == "c4":
            m = c4_based_metric()
        else:
            m = p5bar_minus_a_metric()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(ser.dumps(ser.metric_to_dict(m), compact=args.compact), args.output)
    return EXIT_OK


def cmd_obstacle(args: argparse.Namespace) -> int:
    try:
        g = ser.graph_from_dict(_read_json(args.graph_file))
    except ValueError as exc:
        print(f"error: invalid graph: {exc}", file=sys.stderr)
        return EXIT_ERROR
    options = DecideOptions(threads=args.threads)
    try:
        cert = certify_obstacle(g, options)
    except ObstacleRouteInapplicable as exc:
        _emit(ser.dumps({"status": "inapplicable", "reason": str(exc)}, compact=args.compact), args.output)
        return EXIT_OK
    if cert is None:
        based_metric = decide_metric(based_hypergraph(g), options).metric
        reason = (
            "the hypergraph based on the graph is metric"
            if based_metric
            else "the hypergraph based on the complement is metric"
        )
        _emit(ser.dumps({"status": "undetermined", "reason": reason}, compact=args.compact), args.output)
        return EXIT_OK
    payload = {
        "status": "certified",
        "graph": ser.graph_to_dict(cert.graph),
        "based_verdict": ser.verdict_to_dict(cert.verdict_graph),
        "complement_based_verdict": ser.verdict_to_dict(cert.verdict_complement),
    }
    _emit(ser.dumps(payload, compact=args.compact), args.output)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        result = enumerate_minimal_nonmetric(args.n, budget=args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, h in enumerate(result.found):
        name = f"minimal_nonmetric_{args.n}v_{i:04d}.json"
        (outdir / name).write_text(ser.dumps(ser.hypergraph_to_dict(h)) + "\n")
        entries.append(
            {"file": name, "triples": len(h.triples), "canonical": canonical_form(h).decode()}
        )
    index = {
        "n": args.n,
        "count": len(result.found),
        "classes_examined": result.classes_examined,
        "truncated": result.truncated,
        "elapsed_seconds": round(result.elapsed, 3),
        "entries": entries,
    }
    (outdir / "index.json").write_text(ser.dumps(index) + "\n")
    print(
        f"{len(result.found)} minimal non-metric class(es) on {args.n} vertices"
        f" -> {outdir} ({'truncated' if result.truncated else 'complete'})"
    )
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace) -> int:
    ctx = ReplayContext(
        suite_cases=args.cases,
        enumeration_budget=args.enumeration_budget,
    )
    t0 = time.monotonic()
    try:
        report = run_manifest(only=args.claim, ctx=ctx)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for line_text in report.lines():
        print(line_text)
    total = time.monotonic() - t0
    passed = sum(1 for r in report.results if r.passed)
    print(f"{passed}/{len(report.results)} claims passed in {total:.1f}s")
    return EXIT_OK if report.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodesic",
        description="Exact tooling for metric betweenness: decide metric hypergraphs, certify line-equivalence obstacles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print betweenness facts, collinear triples, lines and the line partition of a metric file")
    p.add_argument("metric_file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("decide", help="decide whether a hypergraph file is metric (exit 0) or not (exit 10)")
    p.add_argument("hypergraph_file")
    p.add_argument("--naive", action="store_true", help="full 3^k enumeration, no propagation (reference oracle)")
    p.add_argument(
        "--threads", "-j", type=_thread_count, default=_default_threads(),
        help=f"worker processes, at most {MAX_THREADS} (default: GEODESIC_THREADS or 1)",
    )
    p.add_argument("--output", "-o", default=None, help="write verdict JSON here instead of stdout")
    p.add_argument("--compact", action="store_true", help="compact JSON")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("construct", help="emit a built-in metric chart as JSON")
    p.add_argument("name", choices=["odd-cycle", "path", "c4", "p5bar-minus-a"])
    p.add_argument("--s", type=int, default=None, help="odd-cycle size parameter (cycle has 2s+1 vertices)")
    p.add_argument("--k", type=int, default=None, help="path order")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--compact", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("obstacle", help="certify a graph's edge/non-edge equivalence as an obstacle")
    p.add_argument("graph_file")
    p.add_argument("--threads", "-j", type=_thread_count, default=_default_threads())
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--compact", action="store_true")
    p.set_defaults(fn=cmd_obstacle)

    p = sub.add_parser("enumerate", help="catalog minimal non-metric hypergraphs on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=float, default=600.0, help="time budget in seconds")
    p.add_argument("--out", default="catalog", help="output directory")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify-paper", help="replay every supported claim and report pass/fail")
    p.add_argument("--claim", default=None, help="run a single claim by id")
    p.add_argument("--cases", type=int, default=1000, help="cases per randomized property suite")
    p.add_argument("--enumeration-budget", type=float, default=900.0)
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_ERROR
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
