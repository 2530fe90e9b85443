"""Command-line surface.

Subcommands: analyze, decide, construct, obstacle, enumerate,
verify-paper.  Exit codes: 0 success (for ``decide``: metric),
10 non-metric, 1 failed verification claims, 2 usage or input errors.
Every input error (an unreadable, malformed or unwritable file, an
invalid object, a size over a cap) reaches ``main`` as an ``OSError`` or
``ValueError`` and is reported there as one ``error:`` line on standard
error.  An ``AssertionError`` is an engine bug (a witness that failed its
own check), not an input error, and is deliberately left unmapped: it
ends the command with a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

from . import serialization as ser
from .constructions import c4_based_metric, odd_cycle_metric, p5bar_minus_a_metric, path_based_metric
from .decider import decide_metric
from .enumeration import canonical_form, enumerate_minimal_nonmetric
from .hypergraphs import based_hypergraph
from .metric import betweenness_triples, hypergraph_of, line, line_partition
from .obstacles import ObstacleRouteInapplicable, certify_obstacle
from .replay import run_manifest

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_NONMETRIC = 10

# Largest ``n`` that ``decide`` accepts, and the largest based hypergraph
# (graph vertices + 1) that ``obstacle`` builds.  Every leaf LP has
# C(n, 2) variables and up to 3 * C(n, 3) rows, and a based hypergraph
# lists C(n, 3) triples, so a tiny file naming a huge ``n`` would
# otherwise exhaust time or memory.  Based C15 on 16 vertices is decided
# in about 11 ms and its complement in about 61 ms (one run each; the
# claims decide based C16 and C17 through the API, past this cap, in
# about 15 ms each); seeded shortest-path metrics on 12-16
# vertices (seeds 0-2) took up to 5.4 s, and a seeded random 10-vertex
# input with 28 triples 7-8 s (ROADMAP item 16).  All on a 2-core
# machine with Python 3.11, so the cap alone does not bound the time.
MAX_DECIDE_VERTICES = 16

# Most points in a ``construct`` chart (``odd-cycle --s N`` has 2N + 2,
# ``path --k N`` has N + 1) and in an ``analyze`` input.  Both commands
# take time about cubic in the size (``path --k 40`` takes about 0.3 s,
# ``--k 80`` over 2 s; ``analyze`` on an equilateral chart about 0.03 s
# at 41 points, 0.5 s at 100 and 2.7 s at 200, on a 2-core machine with
# Python 3.11), so a large chart would otherwise hang the command.
MAX_CHART_POINTS = 41


def _read_json(path: str) -> dict:
    return ser.loads(Path(path).read_text())


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        print(text)
    else:
        Path(out).write_text(text + "\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    data = _read_json(args.metric_file)
    points = data.get("points")
    if isinstance(points, list) and len(points) > MAX_CHART_POINTS:
        raise ValueError(f"{len(points)} points; analyze accepts at most {MAX_CHART_POINTS}")
    m = ser.metric_from_dict(data)
    facts = sorted(betweenness_triples(m), key=lambda f: (f.u, f.v, f.w))
    print(f"points ({len(m.points)}): {' '.join(m.points)}")
    print(f"betweenness facts ({len(facts)}):")
    for f in facts:
        print(f"  {f}")
    h = hypergraph_of(m)
    print(f"collinear triples ({len(h.triples)}):")
    for t in sorted(h.triples):
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
    h = ser.hypergraph_from_dict(_read_json(args.hypergraph_file))
    if h.n > MAX_DECIDE_VERTICES:
        raise ValueError(f"{h.n} vertices; decide accepts at most {MAX_DECIDE_VERTICES}")
    verdict = decide_metric(h)
    _emit(ser.dumps(ser.verdict_to_dict(verdict), compact=args.compact), args.output)
    return EXIT_OK if verdict.metric else EXIT_NONMETRIC


def _chart_size(points: int) -> None:
    if points > MAX_CHART_POINTS:
        raise ValueError(f"the chart would have {points} points; construct makes at most {MAX_CHART_POINTS}")


def cmd_construct(args: argparse.Namespace) -> int:
    if args.name == "odd-cycle":
        if args.s is None:
            raise ValueError("odd-cycle needs --s")
        _chart_size(2 * args.s + 2)
        m = odd_cycle_metric(args.s)
    elif args.name == "path":
        if args.k is None:
            raise ValueError("path needs --k")
        _chart_size(args.k + 1)
        m = path_based_metric(args.k)
    elif args.name == "c4":
        m = c4_based_metric()
    else:
        m = p5bar_minus_a_metric()
    _emit(ser.dumps(ser.metric_to_dict(m), compact=args.compact), args.output)
    return EXIT_OK


def cmd_obstacle(args: argparse.Namespace) -> int:
    g = ser.graph_from_dict(_read_json(args.graph_file))
    # The based hypergraphs of g and of its complement have n + 1 vertices.
    if g.n + 1 > MAX_DECIDE_VERTICES:
        raise ValueError(f"{g.n} vertices; obstacle accepts at most {MAX_DECIDE_VERTICES - 1}")
    try:
        cert = certify_obstacle(g)
    except ObstacleRouteInapplicable as exc:
        _emit(ser.dumps({"status": "inapplicable", "reason": str(exc)}, compact=args.compact), args.output)
        return EXIT_OK
    if cert is None:
        based_metric = decide_metric(based_hypergraph(g)).metric
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
    result = enumerate_minimal_nonmetric(args.n)
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
        "elapsed_seconds": round(result.elapsed, 3),
        "entries": entries,
    }
    (outdir / "index.json").write_text(ser.dumps(index) + "\n")
    print(f"{len(result.found)} minimal non-metric class(es) on {args.n} vertices -> {outdir}")
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    report = run_manifest(only=args.claim)
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
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--compact", action="store_true")
    p.set_defaults(fn=cmd_obstacle)

    p = sub.add_parser("enumerate", help="catalog minimal non-metric hypergraphs on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--out", default="catalog", help="output directory")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify-paper", help="replay every supported claim and report pass/fail")
    p.add_argument("--claim", default=None, help="run a single claim by id")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
