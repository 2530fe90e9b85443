"""Decide whether a 3-uniform hypergraph is metric.

Complete depth-first search over middle assignments, one of three per
hyperedge, with closure propagation after every decision and exact
rational feasibility at total leaves.  A feasible leaf yields a metric
witness (re-verified against the input); exhausting the tree proves no
metric space induces the hypergraph.

When the hypergraph contains a complete core of at least five vertices,
every realization orders that core linearly, so the search branches over
linear orders of the core (reverses and automorphic relabelings skipped;
the automorphisms are found from each outside vertex's link on the core,
once the walk first leaves the identity order) instead of orienting core
triples one at a time.  Orders grow by prefix, and a prefix under which
some outside vertex's link is no step-word pattern is dropped (it has no
realization), and so is one under which some link pair with a core
vertex not yet placed can no longer close, wherever that vertex goes
(every run of a word is an interval of positions).  With at most one
vertex outside the core, an order that survives is realized directly:
the core on a line, the outside vertex at the distances its link's word
gives (``_Search.chart``), so no LP is solved.  Otherwise the order is
seeded whole.  Every other branch is taken by one step,
``_Search.branch``.  A chart and a solved leaf pass the same check
(``_Search._witness``); one that fails it is an engine bug and raises
``AssertionError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .feasibility import START, build_feasibility_system, solve_exact_feasibility

# Unused here: the benchmark's tracer (bench/tracer.py) hooks this name to
# report its relaxation metrics, which read 0 since relaxation pruning was
# removed.  The import goes once the benchmark retires those metrics.
from .feasibility import partial_feasibility_system  # noqa: F401
from .hypergraphs import Hypergraph3, Pair, Triple, sorted_triple
from .metric import MetricSpace, hypergraph_of, validate_metric
from .orientation import OrientationState

CORE_ORDER_MIN = 5  # linear ordering of a complete core is guaranteed from this size
AUTOMORPHISM_CAP = 2000


@dataclass(frozen=True)
class DecideOptions:
    """Search controls; defaults favour the measured-fastest pipeline.

    ``core_order``: branch over linear orders of a complete core of at
    least ``CORE_ORDER_MIN`` vertices when there is one.  ``threads``:
    worker processes for the top-level branches.  Neither changes the
    verdict or the witness.
    """

    core_order: bool = True
    threads: int = 1


@dataclass(frozen=True)
class SearchStats:
    """Work tallies of one decision.

    ``pruned`` is always 0: it counted branches cut by relaxation pruning,
    which the search no longer does, and stays so that verdict JSON keeps
    its ``"pruned"`` key.
    """

    nodes: int = 0
    conflicts: dict[str, int] = field(default_factory=dict)
    leaves_solved: int = 0
    leaves_infeasible: int = 0
    pruned: int = 0

    def merged(self, other: "SearchStats") -> "SearchStats":
        causes = dict(self.conflicts)
        for k, v in other.conflicts.items():
            causes[k] = causes.get(k, 0) + v
        return SearchStats(
            self.nodes + other.nodes,
            causes,
            self.leaves_solved + other.leaves_solved,
            self.leaves_infeasible + other.leaves_infeasible,
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision run; a metric verdict carries its witness."""

    metric: bool
    witness: Optional[MetricSpace]
    stats: SearchStats

    def __post_init__(self) -> None:
        if self.metric and self.witness is None:
            raise ValueError("metric verdict requires a witness")
        if not self.metric and self.witness is not None:
            raise ValueError("non-metric verdict carries no witness")


def _witness_space(n: int, solution: dict[Pair, Fraction]) -> MetricSpace:
    labels = [str(i) for i in range(n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), d in solution.items():
        rows[i][j] = d
        rows[j][i] = d
    return validate_metric(labels, rows)


def find_complete_core(h: Hypergraph3) -> Optional[tuple[int, ...]]:
    """Greedy maximal vertex set with every inner triple a hyperedge.

    One pass in increasing index: the core only grows, so a vertex it
    rejects stays rejected.  Returned only when large enough for order
    branching to be complete.
    """
    core: list[int] = []
    for v in range(h.n):
        if all((a, b, v) in h.triples for a, b in itertools.combinations(core, 2)):
            core.append(v)
    return tuple(core) if len(core) >= CORE_ORDER_MIN else None


def _outside_links(h: Hypergraph3, core: tuple[int, ...]) -> list[dict[int, set[int]]]:
    """The link of every vertex v outside the core, in increasing v: each
    core vertex c maps to the core vertices d with {v, c, d} a hyperedge."""
    core_set = set(core)
    links = {v: {c: set() for c in core} for v in range(h.n) if v not in core_set}
    for t in h.triples:
        outside = [v for v in t if v not in core_set]
        if len(outside) == 1:
            a, b = (v for v in t if v in core_set)
            links[outside[0]][a].add(b)
            links[outside[0]][b].add(a)
    return list(links.values())


def _core_automorphisms(h: Hypergraph3, core: tuple[int, ...], cap: int) -> Optional[list[dict[int, int]]]:
    """Permutations of the core, fixing everything else, that preserve h.

    Such a map keeps every triple inside the complete core or outside it,
    so it preserves h exactly when it preserves every outside vertex's
    link and the core vertex of every hyperedge with two outside vertices.
    Backtracking maps a core vertex only to one of the same colour (its
    degree in every link and the outside pairs it completes: the
    vertex-invariant pruning of McKay and Piperno) whose link pairs with
    the vertices mapped so far agree.  Every link is a bitmask of core
    vertices, all of them packed in one int, so one comparison tests
    v -> w: in every link, the image of v's partners mapped so far must
    be exactly w's partners among their images.  None when more than ``cap`` maps exist (callers then reduce by
    reversal only, which is always sound).
    """
    links = _outside_links(h, core)
    pairs: dict[int, set[tuple[int, ...]]] = {c: set() for c in core}
    for t in h.triples:
        inside = [v for v in t if v in pairs]
        if len(inside) == 1:
            pairs[inside[0]].add(tuple(v for v in t if v != inside[0]))
    colour = {c: (tuple(len(link[c]) for link in links), frozenset(pairs[c])) for c in core}
    same = {v: [w for w in core if colour[w] == colour[v]] for v in core}
    # link l takes bits l*n to l*n + n - 1; spread times a mask of core
    # vertices repeats it in every link's bits
    n = h.n
    spread = sum(1 << (l * n) for l in range(len(links)))
    masks = {c: sum(1 << (l * n + d) for l, link in enumerate(links) for d in link[c]) for c in core}
    # v's partners among the core vertices before it (the ones mapped
    # when v is), each with a bit at the start of every link it is one in
    earlier: dict[int, list[tuple[int, int]]] = {}
    for k, v in enumerate(core):
        blocks = {d: sum(1 << (l * n) for l, link in enumerate(links) if d in link[v]) for d in core[:k]}
        earlier[v] = [(d, b) for d, b in blocks.items() if b]
    found: list[dict[int, int]] = []
    mapping: dict[int, int] = {}

    def extend(k: int, used: int) -> bool:
        if k == len(core):
            found.append(dict(mapping))
            return len(found) <= cap
        v = core[k]
        # the images are distinct bits, so their sum is their union
        image = sum(blocks << mapping[d] for d, blocks in earlier[v])
        shown = used * spread
        for w in same[v]:
            if not used >> w & 1 and image == masks[w] & shown:
                mapping[v] = w
                if not extend(k + 1, used | 1 << w):
                    return False
        return True

    return found if extend(0, 0) else None


@lru_cache(maxsize=None)
def _cliques(k: int) -> tuple[tuple[int, ...], ...]:
    """The position-mask table of k positions: ``_cliques(k)[lo][hi]`` is
    the mask of every pair inside positions lo..hi, 0 when hi <= lo.  The
    pairs inside the first j positions own the first C(j, 2) bits, so the
    pairs (i, j), i < j, own the bits from C(j, 2) on."""
    table = [[0] * k for _ in range(k)]
    for lo in range(k):
        for hi in range(lo + 1, k):
            table[lo][hi] = table[lo][hi - 1] | ((1 << (hi - lo)) - 1) << (hi * (hi - 1) // 2 + lo)
    return tuple(map(tuple, table))


def _pair_bit(i: int, j: int) -> int:
    """Bit of the position pair i < j in a link mask."""
    return 1 << (j * (j - 1) // 2 + i)


def _runs(link: int, lo: int, hi: int, clique: tuple[tuple[int, ...], ...]) -> Optional[list[tuple[int, int]]]:
    """The runs [s..e] of a step word on positions lo..hi whose R is
    exactly ``link`` (pairs inside lo..hi), or None when no word's is.

    Runs meet in at most one point, so the run holding step s is the
    largest clique of ``link`` that starts at s."""
    runs = []
    covered = 0
    s = lo
    while s < hi:
        if link & clique[s][s + 1]:
            e = s + 1
            while e < hi and not clique[s][e + 1] & ~link:
                e += 1
            runs.append((s, e))
            covered |= clique[s][e]
            s = e
        else:
            s += 1
    return runs if covered == link else None


def _sign_runs(runs: list[tuple[int, int]], signs: list[int], left: int, right: int) -> bool:
    """Write alternating signs into the steps of every chain of touching
    runs: a chain that starts at position ``left`` starts with +, one that
    ends at ``right`` ends with -.  False when one chain must do both and
    has an odd number of runs."""
    i = 0
    while i < len(runs):
        j = i + 1
        while j < len(runs) and runs[j][0] == runs[j - 1][1]:
            j += 1
        sign = 1
        if runs[j - 1][1] == right and (j - i) % 2:
            if runs[i][0] == left:
                return False
            sign = -1
        for s, e in runs[i:j]:
            signs[s:e] = [sign] * (e - s)
            sign = -sign
        i = j
    return True


_Word = tuple[tuple[int, ...], Optional[tuple[int, int]]]


def _word(k: int, link: int) -> Optional[_Word]:
    """A step word whose pattern on positions 0..k-1 is the pair set
    ``link``, or None when there is none.

    The word is a sign per step, +1, -1 or 0, and the J pair (L, R) or
    None.  R(w) is every pair inside one maximal run of + steps or of -
    steps.  J(w) is every pair (i, j) with i <= L < R <= j, where [0..L]
    is the initial - run and [R..k-1] the final + run.

    Put a core on its line at positions p, and let a be the distances of
    an outside vertex: a is 1-Lipschitz, so the pairs with |a_j - a_i| =
    p_j - p_i are R(w) for the word of tight steps, and the pairs with
    a_i + a_j = p_j - p_i are J(w) or none.  So in every realization of a
    core order, the link of every outside vertex is a word pattern, and
    so is its restriction to any prefix.  With J, the middle [L..R] less
    the pair (L, R) is an R of its own whose first step is no - step and
    last no + step: a chain of touching runs from L to R alternates from
    + to -.

    Conversely every word is realized with one outside vertex, which is
    the chart of :meth:`_Search.chart`: take p_i = START * i, step a by
    START * sign, and shift a by a constant.  Then |a_j - a_i| = p_j - p_i
    exactly inside a run, since a 0 step or one of the other sign gains
    less than START.  a_i + p_i never falls and stays put only across -
    steps, so it is least exactly on [0..L]; a_j - p_j never rises and
    stays put only across + steps, so it is least exactly on [R..k-1].
    So a_i + a_j - (p_j - p_i) is least exactly on the pairs with i <= L
    and j >= R, (0, k-1) among them: on J(w) when L < R.  The shift puts
    that least value at 0 with J and at START without.  Every a_i is
    positive: a_i = 0 would make a_i + a_j = |p_j - p_i| for every j,
    which needs J and every step before i a - step and every step after
    it a + step, that is L >= i >= R.
    """
    clique = _cliques(k)
    runs = _runs(link, 0, k - 1, clique)
    if runs is not None:
        signs = [0] * (k - 1)
        _sign_runs(runs, signs, -1, -1)  # without J no chain has a forced sign
        return tuple(signs), None
    if not link & _pair_bit(0, k - 1):
        return None
    whole = clique[0][k - 1]
    for left in range(k - 1):
        head = clique[0][left]
        if head & ~link:
            break
        for right in range(k - 1, left, -1):
            outer = head | clique[right][k - 1] | whole & ~clique[0][right - 1] & ~clique[left + 1][k - 1]
            if outer & ~link:
                break
            middle = link & ~outer
            if middle & ~clique[left][right]:
                continue
            runs = _runs(middle, left, right, clique)
            if runs is None:
                continue
            signs = [-1] * left + [0] * (right - left) + [1] * (k - 1 - right)
            if _sign_runs(runs, signs, left, right):
                return tuple(signs), (left, right)
    return None


def _closable(k: int, link: int, partners: Sequence[int]) -> bool:
    """Whether every link pair still pending on position k's prefix can
    close: ``link`` is an outside vertex's link on positions 0..k, and
    each mask in ``partners`` the prefix positions of one unplaced core
    vertex's partners in it.  See :func:`_core_orders` for the rule."""
    clique = _cliques(k + 1)
    head = 1  # the J bound plus one: 0..i is a clique of link for every i < head
    while head <= k and not clique[0][head] & ~link:
        head += 1
    tail = k  # the R bound: i..k is a clique of link for every i >= tail
    while tail and not clique[tail - 1][k] & ~link:
        tail -= 1
    whole = (1 << (k + 1)) - 1
    for mask in partners:
        if mask:
            # 0..i in mask for every i below ``ones``, i..k for every i >= ``top``
            ones = (~mask & (mask + 1)).bit_length() - 1
            top = (~mask & whole).bit_length()
            low, high = min(head, ones), max(tail, top)
            if low < high and mask & ((1 << high) - (1 << low)):
                return False
    return True


def _core_orders(h: Hypergraph3, core: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[_Word, ...]]]:
    """Linear orders of the core that may have a realization, one per
    symmetry class, lazily, each with the word (:func:`_word`) of every
    outside vertex's link at that order, in increasing vertex.

    Two orders explore isomorphic subtrees when one is the other
    reversed or relabeled by an automorphism of the hypergraph, so only
    lex-leaders are produced: orders that no automorphic image, reversed
    or not, precedes lexicographically.  Without the automorphisms
    (more than ``AUTOMORPHISM_CAP``) only reversal is used.  An image
    g(order) first differs from the order just after a prefix g fixes, so
    orders grow by one vertex that no automorphism fixing the prefix maps
    lower; reversed images are compared on whole orders.  The walk starts
    down the identity order (the core is sorted), where the smallest
    vertex left passes every such test and the whole order is its own
    lex-leader, so the automorphisms are computed only when the walk
    first leaves that path.  A vertex is appended only when the link of
    every outside vertex (:func:`_outside_links`, read as the prefix
    position pairs) stays a word pattern, see :func:`_word`; that test is
    invariant under the automorphisms and reversal, so it removes whole
    orbits.  The words of a whole order were decoded by the test of its
    last vertex and are yielded from the walk's cache.

    A vertex that passes is appended only if every link can still close
    (:func:`_closable`, a consecutive-ones argument as in Booth and
    Lueker's PQ-trees).  With the prefix on positions 0..k, take an
    outside link x and an unplaced core vertex u, and let P be the
    positions of u's partners in x.  Wherever u goes, at some j > k,
    every i in P needs (i, j) in R(w) or J(w) of x's whole word w:

    - in R, i..j is one run, so every pair inside it is in the link:
      i..k all lie in P, and every pair inside i..k is in x;
    - in J, i <= L, so 0..i lies in the initial - run, whose pairs are
      in the link, and J joins all of 0..L to j: 0..i all lie in P, and
      every pair inside 0..i is in x.

    Both hold for every later i (R) or every earlier i (J) once they
    hold for one, so with t the least i of the first and h the greatest
    of the second the test is P within [0..h] and [t..k].  Each case is
    necessary in every completion whose links are word patterns, so a
    dropped prefix starts no order that the word test keeps, and the
    walk yields what it would without the look-ahead, in the same order.
    Without it, every proper prefix of a based even cycle's link is a
    pattern and only the closing position fails, by parity, so the walk
    would grow about 10x per two more vertices.
    """
    near = _outside_links(h, core)
    # rows[x][u]: the prefix positions of u's partners in link x, so that
    # appending u at position k adds the link bits rows[x][u] << C(k, 2)
    rows = [dict.fromkeys(core, 0) for _ in near]
    word = lru_cache(maxsize=None)(_word)
    group: list[list[dict[int, int]]] = []

    def automorphisms() -> list[dict[int, int]]:
        if not group:
            group.append(_core_automorphisms(h, core, AUTOMORPHISM_CAP) or [{v: v for v in core}])
        return group[0]

    def grow(
        prefix: tuple[int, ...], stabilizer: Optional[list[dict[int, int]]], links: tuple[int, ...]
    ) -> Iterator[tuple[tuple[int, ...], tuple[_Word, ...]]]:
        # stabilizer None: prefix starts the identity order, and the maps
        # fixing it are not computed yet
        k = len(prefix)
        if k == len(core):
            # a reversed image g(reverse) starts with g(last)
            first, last, reverse = prefix[0], prefix[-1], prefix[::-1]
            if stabilizer is None or all(
                g[last] > first or (g[last] == first and tuple(map(g.__getitem__, reverse)) >= prefix)
                for g in automorphisms()
            ):
                yield prefix, tuple(word(k, link) for link in links)
            return
        base = k * (k - 1) // 2
        for v in core:
            if v in prefix:
                continue
            if stabilizer is None and v != core[k]:
                stabilizer = [g for g in automorphisms() if all(g[u] == u for u in prefix)]
            if stabilizer is not None and any(g[v] < v for g in stabilizer):
                continue
            grown = tuple(link | row[v] << base for link, row in zip(links, rows))
            if all(word(k + 1, link) is not None for link in grown):
                for row, partners in zip(rows, near):
                    for u in partners[v]:
                        row[u] |= 1 << k
                rest = [u for u in core if u != v and u not in prefix]
                if all(_closable(k, link, [row[u] for u in rest]) for link, row in zip(grown, rows)):
                    below = None if stabilizer is None else [g for g in stabilizer if g[v] == v]
                    yield from grow(prefix + (v,), below, grown)
                for row, partners in zip(rows, near):
                    for u in partners[v]:
                        row[u] ^= 1 << k

    return grow((), None, (0,) * len(near))


def _linear_core_facts(core_order: tuple[int, ...]) -> list[tuple[Triple, int]]:
    """Middle-of-every-inner-triple facts of a linearly ordered core, by
    last position.  The set is closed under the four-point rule: premises
    between order-median facts only ever conclude order-median facts.
    """
    facts = []
    for k in range(len(core_order)):
        c = core_order[k]
        for i, j in itertools.combinations(range(k), 2):
            facts.append((sorted_triple(core_order[i], core_order[j], c), core_order[j]))
    return facts


class _Search:
    """One decision's orientation state, work tallies and branch step."""

    def __init__(self, h: Hypergraph3):
        self.h = h
        self.state = OrientationState(h)
        self.hyperedges = sorted(h.triples)
        self.nodes = 0
        self.conflicts: dict[str, int] = {}
        self.leaves_solved = 0
        self.leaves_infeasible = 0

    def stats(self) -> SearchStats:
        return SearchStats(self.nodes, dict(self.conflicts), self.leaves_solved, self.leaves_infeasible)

    def _next_triple(self) -> Optional[Triple]:
        """Unassigned hyperedge touching the most already-oriented
        vertices; ties broken lexicographically."""
        middles, touches = self.state.middles, self.state.touches
        best: Optional[Triple] = None
        best_score = -1
        for t in self.hyperedges:
            if t in middles:
                continue
            score = (touches[t[0]] > 0) + (touches[t[1]] > 0) + (touches[t[2]] > 0)
            if score > best_score:
                best, best_score = t, score
                if score == 3:
                    break
        return best

    def _witness(self, solution: dict[Pair, Fraction]) -> MetricSpace:
        """The witness of pair distances that realize h, counted as one
        solved leaf.  Distances that are no metric, or that induce another
        hypergraph, are an engine bug: ``AssertionError``, never the
        ``ValueError`` of an invalid input."""
        try:
            witness = _witness_space(self.h.n, solution)
        except ValueError as exc:
            raise AssertionError(f"witness is no metric ({exc}); engine bug") from exc
        if hypergraph_of(witness) != self.h:
            raise AssertionError("witness induced the wrong hypergraph; engine bug")
        self.leaves_solved += 1
        return witness

    def leaf(self, middles: dict[Triple, int]) -> Optional[MetricSpace]:
        """The checked witness (:meth:`_witness`) of a total middle
        assignment, or None when its LP is infeasible."""
        solution = solve_exact_feasibility(build_feasibility_system(self.h, middles))
        if solution is None:
            self.leaves_infeasible += 1
            return None
        return self._witness(solution)

    def chart(self, order: tuple[int, ...], words: Sequence[_Word]) -> MetricSpace:
        """The line-plus-apex witness of a core order that leaves at most
        one vertex outside, from the word of that vertex's link as
        :func:`_core_orders` yields it.

        The core sits at positions START * i on a line; the outside vertex,
        if any, takes the distances of its word (see :func:`_word`).  A
        chart counts as one node and, checked by :meth:`_witness`, one
        solved leaf.
        """
        k = len(order)
        solution = {(u, v): START * (j - i) for (i, u), (j, v) in itertools.combinations(enumerate(order), 2)}
        apexes = sorted(set(range(self.h.n)).difference(order))
        for apex, (signs, jpair) in zip(apexes, words):
            a = list(itertools.accumulate((START * s for s in signs), initial=0))
            # a_i + a_j - (p_j - p_i) is least at (0, k-1): 0 with J, else START
            shift = Fraction((0 if jpair else START) - a[0] - a[-1] + START * (k - 1), 2)
            for i, u in enumerate(order):
                solution[apex, u] = a[i] + shift
        self.nodes += 1
        return self._witness(solution)

    def branch(
        self, keep: int, seed: Sequence[tuple[Triple, int]] = (), fact: Optional[tuple[Triple, int]] = None
    ) -> Optional[MetricSpace]:
        """Roll the trail back to ``keep`` facts, push one branch (one node)
        and search below it; return the witness found, else None.  A branch
        is a decision ``fact``, asserted with closure, a core order's closed
        ``seed``, or nothing for an edgeless input."""
        state = self.state
        state.rollback(keep)
        if seed:
            self.nodes += 1
            state.seed_unchecked(seed)
        elif fact is not None:
            self.nodes += 1
            conflict = state.assert_fact(*fact)
            if conflict is not None:
                self.conflicts[conflict.cause] = self.conflicts.get(conflict.cause, 0) + 1
                return None
        return self.search()

    def search(self) -> Optional[MetricSpace]:
        """The leaf, or a branch per middle of the next hyperedge; restores the state on failure."""
        if len(self.state.middles) == len(self.hyperedges):
            return self.leaf(self.state.middles)
        triple = self._next_triple()
        assert triple is not None
        mark = self.state.checkpoint()
        for middle in triple:
            witness = self.branch(mark, fact=(triple, middle))
            if witness is not None:
                return witness
        self.state.rollback(mark)
        return None


def _explore(
    h: Hypergraph3, core_order: bool, stride: int = 1, offset: int = 0
) -> tuple[Optional[int], Optional[MetricSpace], SearchStats]:
    """Search the top-level branches of ``h`` in their global order.

    The branches are the core orders of :func:`_core_orders` when
    ``core_order`` is set and ``h`` has a complete core, else the three
    middles of the first hyperedge, or an edgeless input's lone leaf.
    Every branch is counted, conflicted ones too, so a hit index names
    the same branch for every stride; only branches with
    ``index % stride == offset`` are searched.  Returns the index and
    witness of the first hit (``None, None`` when there is none) and the
    work tallies.
    """
    search = _Search(h)
    core = find_complete_core(h) if core_order else None
    if core is not None:
        branches = _core_orders(h, core)
        charted = h.n - len(core) <= 1
    else:
        root = min(h.triples, default=())
        branches = [(root, middle) for middle in root] or [None]
    for index, branch in enumerate(branches):
        if index % stride != offset:
            continue
        if core is None:
            witness = search.branch(0, fact=branch)
        elif charted:
            witness = search.chart(*branch)
        else:
            witness = search.branch(0, seed=_linear_core_facts(branch[0]))
        if witness is not None:
            return index, witness, search.stats()
    return None, None, search.stats()


@lru_cache(maxsize=256)
def _decide_cached(h: Hypergraph3, opts: DecideOptions) -> Verdict:
    if opts.threads > 1:
        from .parallel import decide_parallel

        return decide_parallel(h, opts)
    _, witness, stats = _explore(h, opts.core_order)
    return Verdict(witness is not None, witness, stats)


def decide_metric(h: Hypergraph3, options: Optional[DecideOptions] = None) -> Verdict:
    """Is ``h`` induced by some finite metric space?

    A metric verdict carries a realization whose collinearity hypergraph
    is re-verified to equal ``h`` exactly.  Deterministic: identical
    inputs and options give identical verdicts, witnesses and statistics.
    Results are memoized (everything is immutable); see
    :func:`clear_decision_cache` for timing measurements.
    """
    if h.n < 2:
        raise ValueError("need at least 2 vertices")
    return _decide_cached(h, options or DecideOptions())


def clear_decision_cache() -> None:
    _decide_cached.cache_clear()


def decide_metric_naive(h: Hypergraph3) -> Verdict:
    """Reference decider: try all 3^k total orientations, no closure, no
    pruning, a full feasibility solve at every leaf.

    Exponentially slower than :func:`decide_metric`; exists as the
    independent oracle the main search is tested against.
    """
    if h.n < 2:
        raise ValueError("need at least 2 vertices")
    triples = sorted(h.triples)
    search = _Search(h)
    for middles in itertools.product(*triples):
        search.nodes += 1
        witness = search.leaf(dict(zip(triples, middles)))
        if witness is not None:
            return Verdict(True, witness, search.stats())
    return Verdict(False, None, search.stats())


def is_minimal_nonmetric(h: Hypergraph3, options: Optional[DecideOptions] = None) -> bool:
    """Non-metric, but metric after deleting any single vertex."""
    if h.n < 3:
        raise ValueError("need at least 3 vertices")
    if decide_metric(h, options).metric:
        return False
    return all(decide_metric(h.delete_vertex(v), options).metric for v in range(h.n))
