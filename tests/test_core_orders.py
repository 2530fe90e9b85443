"""Direct tests of the core-order layer of the decider.

``_core_automorphisms``, ``_word`` and ``_core_orders`` decide which core
orders the search skips; one wrong map or one wrongly rejected link there
would skip an order that holds the only witness, and one wrongly decoded
word would give a chart that fails its check (an engine bug).  Each test
checks them against a reference built here by brute force (every step
word, every permutation), or by the dihedral group of a cycle.
"""

import functools
import itertools
import random
import tracemalloc

import pytest

from geodesic import decider
from geodesic.decider import (
    AUTOMORPHISM_CAP,
    DecideOptions,
    SearchStats,
    _core_automorphisms,
    _core_orders,
    _pair_bit,
    _word,
    clear_decision_cache,
    decide_metric,
    find_complete_core,
)
from geodesic.enumeration import canonical_form
from geodesic.hypergraphs import (
    Graph,
    Hypergraph3,
    based_hypergraph,
    complement,
    cycle_graph,
    path_graph,
    sorted_triple,
)


def _planted(seed: int, k: int, extra: int, density: float) -> Hypergraph3:
    """``k + extra`` vertices; every triple inside a random ``k``-subset is
    a hyperedge, every other triple one with probability ``density``."""
    rng = random.Random(seed)
    n = k + extra
    core = set(rng.sample(range(n), k))
    triples = [
        t for t in itertools.combinations(range(n), 3) if set(t) <= core or rng.random() < density
    ]
    return Hypergraph3.from_triples(n, triples)


@functools.cache
def _graph_classes(n: int) -> tuple[Graph, ...]:
    """One graph per isomorphism class on n vertices, deduplicated by the
    canonical form of its based hypergraph: every graph is one on n - 1
    vertices with vertex n - 1 joined to some of them."""
    smaller = _graph_classes(n - 1) if n > 1 else (Graph(0, frozenset()),)
    classes = {}
    for g in smaller:
        for joined in range(1 << (n - 1)):
            edges = g.edges | {(v, n - 1) for v in range(n - 1) if joined >> v & 1}
            graph = Graph(n, frozenset(edges))
            classes.setdefault(canonical_form(based_hypergraph(graph)), graph)
    return tuple(classes.values())


CYCLES = {
    f"C{n}{'-bar' if co else ''}": (n, based_hypergraph(complement(cycle_graph(n)) if co else cycle_graph(n)))
    for n in (5, 6, 7, 8)
    for co in (False, True)
}
PLANTED = {
    f"planted-k{k}-d{density}": _planted(1, k, 2, density)
    for k in (5, 6, 7)
    for density in (0.0, 0.2, 0.5)
    if (k, density) != (7, 0.0)  # its 5040 core automorphisms exceed the cap
}
# Three outside vertices, so several outside pairs that a core vertex may
# complete to a hyperedge (the second part of its colour).
PLANTED.update({f"planted3-k{k}-d{density}": _planted(2, k, 3, density) for k in (5, 6) for density in (0.2, 0.5)})
# Complete 7-vertex cores whose every permutation is an automorphism.
CAPPED = {
    "K7": Hypergraph3.from_triples(7, itertools.combinations(range(7), 3)),
    "planted-k7-d0.0": _planted(1, 7, 2, 0.0),
}
SMALL = {
    "P5-bar": based_hypergraph(complement(path_graph(5))),
    **PLANTED,
    **{name: h for name, (n, h) in CYCLES.items() if n <= 7},
}
UNCAPPED = {**SMALL, **{name: h for name, (n, h) in CYCLES.items() if n == 8}}
# Based hypergraphs, one outside vertex: every 5-vertex graph class and
# its complement, and a seeded sample of the 6-vertex classes.
BASED = {
    f"based5-{i}{'-bar' if co else ''}": based_hypergraph(complement(g) if co else g)
    for i, g in enumerate(_graph_classes(5))
    for co in (False, True)
}
BASED.update(
    (f"based6-{i}", based_hypergraph(_graph_classes(6)[i]))
    for i in sorted(random.Random(6).sample(range(len(_graph_classes(6))), 30))
)


def _relabel(h: Hypergraph3, g: dict[int, int]) -> frozenset:
    return frozenset(sorted_triple(*(g.get(v, v) for v in t)) for t in h.triples)


def _brute_automorphisms(h: Hypergraph3, core: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Images of ``core``, in core order, under every core permutation preserving h."""
    return {
        image for image in itertools.permutations(core) if _relabel(h, dict(zip(core, image))) == h.triples
    }


def _dihedral(n: int) -> set[tuple[int, ...]]:
    """Images of 0..n-1 under the rotations and reflections of the n-cycle."""
    return {tuple((s * v + r) % n for v in range(n)) for r in range(n) for s in (1, -1)}


def _orbit_leaders(core: tuple[int, ...], images: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Least member of every orbit of core orders under the maps and reversal, sorted."""
    maps = [dict(zip(core, image)) for image in images]
    leaders = set()
    for order in itertools.permutations(core):
        mates = [tuple(g[v] for v in order) for g in maps]
        leaders.add(min(mates + [m[::-1] for m in mates]))
    return sorted(leaders)


def _ends(w: tuple[int, ...]) -> tuple[int, int]:
    """(L, R): [0..L] is the initial - run of the step word w, [R..k-1] its final + run."""
    left = next((s for s in range(len(w)) if w[s] != -1), len(w))
    right = next((s + 1 for s in reversed(range(len(w))) if w[s] != 1), 0)
    return left, right


def _pattern(w: tuple[int, ...], with_j: bool) -> frozenset:
    """R(w), with J(w) when ``with_j``, as a set of position pairs."""
    k = len(w) + 1
    pairs = {(i, j) for i, j in itertools.combinations(range(k), 2) if w[i] != 0 and len(set(w[i:j])) == 1}
    if with_j:
        left, right = _ends(w)
        pairs |= {(i, j) for i in range(left + 1) for j in range(right, k)}
    return frozenset(pairs)


def _word_patterns(k: int) -> dict[tuple, frozenset]:
    """R(w), and R(w) with J(w) when L < R, for every step word w in
    {+1, -1, 0}^(k-1), keyed by the word and its J pair (L, R) or None."""
    patterns = {}
    for w in itertools.product((1, -1, 0), repeat=k - 1):
        patterns[w, None] = _pattern(w, False)
        left, right = _ends(w)
        if left < right:
            patterns[w, (left, right)] = _pattern(w, True)
    return patterns


def _mask(pairs) -> int:
    return sum(_pair_bit(i, j) for i, j in pairs)


def _link(h: Hypergraph3, order: tuple[int, ...], x: int) -> frozenset:
    """The position pairs (i, j) of ``order`` with {x, order[i], order[j]} a hyperedge."""
    pairs = itertools.combinations(range(len(order)), 2)
    return frozenset((i, j) for i, j in pairs if sorted_triple(x, order[i], order[j]) in h.triples)


def _word_filtered(h: Hypergraph3, core: tuple[int, ...], orders: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The whole orders under which the link of every outside vertex is a word pattern."""
    patterns = set(_word_patterns(len(core)).values())
    outside = [x for x in range(h.n) if x not in core]
    return [order for order in orders if all(_link(h, order, x) in patterns for x in outside)]


def _core(h: Hypergraph3) -> tuple[int, ...]:
    core = find_complete_core(h)
    assert core is not None
    return core


@pytest.mark.parametrize("h", UNCAPPED.values(), ids=UNCAPPED.keys())
def test_every_map_is_a_core_automorphism(h):
    core = _core(h)
    autos = _core_automorphisms(h, core, AUTOMORPHISM_CAP)
    assert autos is not None
    assert {v: v for v in core} in autos
    for g in autos:
        assert set(g) == set(core) and set(g.values()) == set(core)  # fixes every vertex outside
        assert _relabel(h, g) == h.triples


@pytest.mark.parametrize("h", SMALL.values(), ids=SMALL.keys())
def test_automorphisms_match_brute_force(h):
    core = _core(h)
    autos = _core_automorphisms(h, core, AUTOMORPHISM_CAP)
    found = [tuple(g[v] for v in core) for g in autos]
    assert len(found) == len(set(found))
    assert set(found) == _brute_automorphisms(h, core)


@pytest.mark.parametrize("name", CYCLES)
def test_cycle_automorphisms_are_dihedral(name):
    n, h = CYCLES[name]
    core = _core(h)
    assert core == tuple(range(n))
    autos = _core_automorphisms(h, core, AUTOMORPHISM_CAP)
    assert {tuple(g[v] for v in core) for g in autos} == _dihedral(n)


@pytest.mark.parametrize("h", CAPPED.values(), ids=CAPPED.keys())
def test_complete_seven_vertex_core_exceeds_cap(h):
    core = _core(h)
    assert len(core) == 7
    assert _core_automorphisms(h, core, AUTOMORPHISM_CAP) is None
    # the fallback reduces by reversal only
    orders = [order for order, _ in _core_orders(h, core)]
    assert orders == [p for p in itertools.permutations(core) if p[0] < p[-1]]


def test_automorphisms_wait_until_the_walk_leaves_the_identity_order(monkeypatch):
    # Down the identity order every lex-leader test passes without the
    # maps, and a complete core's chart is its line, so deciding K7 never
    # computes its 5040 maps; a walk that leaves the path computes them once.
    calls = []
    compute = decider._core_automorphisms
    monkeypatch.setattr(decider, "_core_automorphisms", lambda *args: calls.append(args) or compute(*args))
    clear_decision_cache()
    try:
        verdict = decide_metric(CAPPED["K7"])
        assert verdict.metric and verdict.stats == SearchStats(1, leaves_solved=1)
        assert calls == []
        assert not decide_metric(CYCLES["C8"][1]).metric
        assert len(calls) == 1
    finally:
        clear_decision_cache()


def _elementwise_automorphisms(h, core, cap):
    """The element-wise reference for ``_core_automorphisms``: the same
    colours and backtracking order, with a link kept as a set per core
    vertex and v -> w tested against every vertex mapped so far."""
    links = decider._outside_links(h, core)
    pairs = {c: set() for c in core}
    for t in h.triples:
        inside = [v for v in t if v in pairs]
        if len(inside) == 1:
            pairs[inside[0]].add(tuple(v for v in t if v != inside[0]))
    colour = {c: (tuple(len(link[c]) for link in links), frozenset(pairs[c])) for c in core}
    same = {v: [w for w in core if colour[w] == colour[v]] for v in core}
    found, mapping, used = [], {}, set()

    def extend(k):
        if k == len(core):
            found.append(dict(mapping))
            return len(found) <= cap
        v = core[k]
        for w in same[v]:
            if w not in used and all((d in link[v]) == (mapping[d] in link[w]) for link in links for d in mapping):
                mapping[v] = w
                used.add(w)
                if not extend(k + 1):
                    return False
                del mapping[v]
                used.discard(w)
        return True

    return found if extend(0) else None


def _planted_with_cores() -> dict[str, Hypergraph3]:
    """Seeded planted inputs, 0-3 outside vertices, whose greedy core is found."""
    found = {}
    for seed, k, extra, density in itertools.product(range(3, 11), (5, 6, 7), range(4), (0.0, 0.1, 0.3, 0.5)):
        h = _planted(seed, k, extra, density)
        if find_complete_core(h) is not None:
            found[f"planted-s{seed}-k{k}-x{extra}-d{density}"] = h
    return found


IDENTITY_INPUTS = {"uncapped": UNCAPPED, "capped": CAPPED, "planted": _planted_with_cores()}


@pytest.mark.parametrize("cap", [AUTOMORPHISM_CAP, 3])
@pytest.mark.parametrize("group", IDENTITY_INPUTS)
def test_bitmask_automorphisms_match_the_elementwise_reference(group, cap):
    # The same maps in the same order, key order included, or both None;
    # the planted group meets both results at either cap.
    results = set()
    for name, h in IDENTITY_INPUTS[group].items():
        core = _core(h)
        autos, expected = _core_automorphisms(h, core, cap), _elementwise_automorphisms(h, core, cap)
        assert (autos is None) == (expected is None), name
        if expected is not None:
            assert [list(g.items()) for g in autos] == [list(g.items()) for g in expected], name
        results.add(autos is None)
    if group == "planted":
        assert results == {True, False}


@pytest.mark.parametrize("h", [*SMALL.values(), *BASED.values()], ids=[*SMALL, *BASED])
def test_core_orders_are_orbit_leaders(h):
    # The walk drops a prefix when a link stops being a word pattern or
    # when a pending link pair can no longer close; either, too strict,
    # would drop an order that the whole-order filter keeps.
    core = _core(h)
    leaders = _orbit_leaders(core, _brute_automorphisms(h, core))
    assert [order for order, _ in _core_orders(h, core)] == _word_filtered(h, core, leaders)


@pytest.mark.parametrize("n", [7, 8])
def test_cycle_core_orders_are_dihedral_orbit_leaders(n):
    h = based_hypergraph(cycle_graph(n))
    core = _core(h)
    orders = [order for order, _ in _core_orders(h, core)]
    assert orders == _word_filtered(h, core, _orbit_leaders(core, _dihedral(n)))


def test_cycle_walk_decodes_few_words(monkeypatch):
    # Every proper prefix of a based even cycle's link is a word pattern,
    # and only the closing position fails, by parity, so a walk without
    # the look-ahead visits a number of prefixes exponential in n.  The
    # walk's cache wraps the module's ``_word`` at call time, so the
    # distinct decodes it asks for measure the walk.
    decoded = set()
    decode = decider._word
    monkeypatch.setattr(decider, "_word", lambda k, link: decoded.add((k, link)) or decode(k, link))
    for n in range(6, 18):
        decoded.clear()
        h = based_hypergraph(cycle_graph(n))
        orders = [order for order, _ in _core_orders(h, _core(h))]
        assert len(orders) == n % 2, n
        assert len(decoded) <= 4 * n, (n, len(decoded))


@pytest.mark.parametrize("h", [*UNCAPPED.values(), *CAPPED.values()], ids=[*UNCAPPED, *CAPPED])
def test_core_orders_yield_the_word_of_every_link(h):
    # The chart places the outside vertex by these words, so each must be
    # the word of that vertex's link, built here from the triples, at the
    # order it comes with.
    core = _core(h)
    outside = [x for x in range(h.n) if x not in core]
    for order, words in _core_orders(h, core):
        links = [_link(h, order, x) for x in outside]
        assert words == tuple(_word(len(order), _mask(link)) for link in links), order
        assert [_pattern(signs, jpair is not None) for signs, jpair in words] == links, order


def test_core_orders_memory_is_bounded():
    # A complete core 0..6 with no automorphism: vertices 7, 8 and 9 tag
    # each core vertex c by the bits of c, and vertex 10's link is the
    # pair {0, 1}, a word pattern iff 0 and 1 are adjacent or at both
    # ends: (2 * 6! + 2 * 5!) / 2 = 840 orders, up to reversal.
    # Remembering each visited one would take over 100 kB.
    tags = [(c, *pair) for c in range(7) for bit, pair in enumerate([(7, 8), (7, 9), (8, 9)]) if c >> bit & 1]
    complete = list(itertools.combinations(range(7), 3)) + tags
    h = Hypergraph3.from_triples(11, complete + [(0, 1, 10)])
    core = _core(h)
    assert core == tuple(range(7))
    assert len(_core_automorphisms(h, core, AUTOMORPHISM_CAP)) == 1
    # One untraced walk first, on a twin whose vertex 10 has the link
    # {0, 2} (the same 840 orders, by the same count), so nothing keyed
    # on h is primed.  Objects a walk frees are parked on the
    # interpreter's free lists (the 1-tuple closures of its generator
    # expressions among them), and tracemalloc counts a parked object as
    # still allocated: from cold free lists a walk reads about 120 kB,
    # from full ones about 25 kB, so without the warm-up the reading
    # follows whatever ran before the test.
    twin = Hypergraph3.from_triples(11, complete + [(0, 2, 10)])
    assert _core(twin) == core
    assert sum(1 for _ in _core_orders(twin, core)) == 840
    tracemalloc.start()
    try:
        count = sum(1 for _ in _core_orders(h, core))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 840
    assert peak < 1 << 16


@pytest.mark.parametrize("k", range(1, 7))
def test_word_check_matches_every_pair_set(k):
    patterns = {_mask(p) for p in _word_patterns(k).values()}
    for link in range(1 << (k * (k - 1) // 2)):
        assert (_word(k, link) is not None) == (link in patterns), (k, link)


@pytest.mark.parametrize("k", [7, 8])
def test_word_check_matches_patterns_and_their_flips(k):
    patterns = {_mask(p) for p in _word_patterns(k).values()}
    for link in patterns:
        assert _word(k, link) is not None
        for bit in range(k * (k - 1) // 2):
            flipped = link ^ 1 << bit
            assert (_word(k, flipped) is not None) == (flipped in patterns), (k, flipped)


@pytest.mark.parametrize("k", range(1, 8))
def test_every_word_decodes_to_its_pattern(k):
    # The chart is built from the decoded word, so it must give the link
    # back exactly: the J pair is the word's own (L, R), and the runs
    # touching L and R carry the signs J needs.
    for word, pattern in _word_patterns(k).items():
        decoded = _word(k, _mask(pattern))
        assert decoded is not None, word
        signs, jpair = decoded
        assert len(signs) == k - 1 and set(signs) <= {1, -1, 0}
        assert jpair is None or jpair == _ends(signs)
        assert _pattern(signs, jpair is not None) == pattern, word


def test_word_filter_agrees_with_closure_search():
    # A wrongly rejected core order would turn a metric input non-metric.
    verdicts = []
    for seed, k, density in itertools.product(range(20), (5, 6), (0.1, 0.2, 0.3)):
        h = _planted(seed, k, 2, density)
        if find_complete_core(h) is None:
            continue
        verdict = decide_metric(h).metric
        assert verdict == decide_metric(h, DecideOptions(core_order=False)).metric, (seed, k, density)
        verdicts.append(verdict)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def _fixpoint_core(h: Hypergraph3) -> tuple[int, ...]:
    """The greedy core grown pass after pass until no vertex extends it."""
    core: list[int] = []
    changed = True
    while changed:
        changed = False
        for v in range(h.n):
            if v not in core and all(
                sorted_triple(v, a, b) in h.triples for a, b in itertools.combinations(core, 2)
            ):
                core.append(v)
                changed = True
    return tuple(sorted(core))


def test_one_pass_core_is_the_fixpoint():
    rng = random.Random(3)
    inputs = [h for _, h in CYCLES.values()] + list(PLANTED.values())
    inputs += [_planted(rng.randrange(1 << 30), rng.randint(3, 7), rng.randint(0, 3), rng.random()) for _ in range(200)]
    for h in inputs:
        core = _fixpoint_core(h)
        assert find_complete_core(h) == (core if len(core) >= 5 else None)
