"""Dump the decider's observable behaviour on a fixed input set, and hash it.

It prints two SHA-256 hashes.  Two checkouts that print the same first
hash give the same verdicts, witnesses, search tallies (conflict causes
in the order they were first met), canonical forms and n=6 enumeration
on every input below.  The second hash covers the verdicts alone (metric
or not, per input and option) and the n=6 enumeration, so a change that
moves only witnesses or tallies keeps it.  Run it from any directory; it
imports the package from the ``src`` next to it and reads ``bench/data``
without writing there:

    python3 tools/behaviour_dump.py [--out dump.jsonl]

``--out`` also writes the full dump, one JSON line per input, so two
dumps can be compared line by line.  A full run takes about 30 s on a
2-core machine with Python 3.11.

Inputs: the ``random-n7`` pool and the ``enum_n6`` classes of
``bench/data``; based C4-C13; the based complements of C5-C9; based
P5-bar; and planted cores (every triple inside a random k-subset, every
other triple with probability d): ``planted-24`` and ``planted-31``
(seeds 24 and 31, k=5, d=0.5) and seeds 1-6 for k = 5..8 and d in
{0.2, 0.5}, each on k+2 vertices.  Each input gets its verdict with
``core_order`` True, and also False when it has at most 7 vertices,
and its canonical form when it has at most ``CANONICAL_MAX_VERTICES``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from geodesic.decider import DecideOptions, decide_metric  # noqa: E402
from geodesic.enumeration import CANONICAL_MAX_VERTICES, canonical_form, enumerate_minimal_nonmetric  # noqa: E402
from geodesic.hypergraphs import Hypergraph3, based_hypergraph, complement, cycle_graph, path_graph  # noqa: E402
from geodesic.serialization import hypergraph_to_dict, verdict_to_dict  # noqa: E402

FULL_SEARCH_MAX_VERTICES = 7


def _decode(n: int, mask: int) -> Hypergraph3:
    """The hyperedges are the set bits over ``itertools.combinations(range(n), 3)``."""
    return Hypergraph3.from_triples(n, (t for i, t in enumerate(itertools.combinations(range(n), 3)) if mask >> i & 1))


def _planted(seed: int, k: int, extra: int, density: float) -> Hypergraph3:
    """``k + extra`` vertices; every triple inside a random ``k``-subset is
    a hyperedge, every other triple one with probability ``density``."""
    rng = random.Random(seed)
    n = k + extra
    core = set(rng.sample(range(n), k))
    triples = [t for t in itertools.combinations(range(n), 3) if set(t) <= core or rng.random() < density]
    return Hypergraph3.from_triples(n, triples)


def inputs() -> list[tuple[str, Hypergraph3]]:
    data = ROOT / "bench" / "data"
    cases = []
    for name in ("random_n7", "enum_n6"):
        table = json.loads((data / f"{name}.json").read_text(encoding="utf-8"))
        entries = table["instances"] if "instances" in table else table["classes"]
        cases += [(f"{name}-{e['mask']}", _decode(table["n"], e["mask"])) for e in entries]
    cases += [(f"C{n}", based_hypergraph(cycle_graph(n))) for n in range(4, 14)]
    cases += [(f"C{n}-bar", based_hypergraph(complement(cycle_graph(n)))) for n in range(5, 10)]
    cases.append(("P5-bar", based_hypergraph(complement(path_graph(5)))))
    cases += [(f"planted-{seed}", _planted(seed, 5, 2, 0.5)) for seed in (24, 31)]
    cases += [
        (f"planted-s{seed}-k{k}-d{density}", _planted(seed, k, 2, density))
        for k in range(5, 9)
        for density in (0.2, 0.5)
        for seed in range(1, 7)
    ]
    return cases


def _verdict(h: Hypergraph3, core_order: bool) -> dict:
    v = decide_metric(h, DecideOptions(core_order=core_order))
    return {"verdict": verdict_to_dict(v), "conflict_order": list(v.stats.conflicts)}


def dump_lines() -> list[str]:
    lines = []
    for name, h in inputs():
        record = {"input": name, "hypergraph": hypergraph_to_dict(h), "core_order": _verdict(h, True)}
        if h.n <= FULL_SEARCH_MAX_VERTICES:
            record["no_core_order"] = _verdict(h, False)
        if h.n <= CANONICAL_MAX_VERTICES:
            record["canonical_form"] = canonical_form(h).decode()
        lines.append(json.dumps(record))
    result = enumerate_minimal_nonmetric(6)
    lines.append(
        json.dumps(
            {
                "input": "enumerate_minimal_nonmetric(6)",
                "found": [hypergraph_to_dict(h) for h in result.found],
                "classes_examined": result.classes_examined,
            }
        )
    )
    return lines


def verdict_line(line: str) -> str:
    """A dump line with everything but the verdicts dropped."""
    record = json.loads(line)
    for key in ("core_order", "no_core_order"):
        if key in record:
            record[key] = record[key]["verdict"]["verdict"]
    record.pop("hypergraph", None)
    record.pop("canonical_form", None)
    return json.dumps(record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the dump here, one JSON line per input")
    args = parser.parse_args(argv)
    lines = dump_lines()
    text = "".join(line + "\n" for line in lines)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    print(hashlib.sha256(text.encode()).hexdigest())
    verdicts = "".join(verdict_line(line) + "\n" for line in lines)
    print(hashlib.sha256(verdicts.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
