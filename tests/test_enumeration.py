import dataclasses
import itertools
import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from geodesic.decider import decide_metric
from geodesic.enumeration import (
    CANONICAL_MAX_VERTICES,
    canonical_form,
    enumerate_minimal_nonmetric,
)
from geodesic.hypergraphs import (
    Hypergraph3,
    based_hypergraph,
    cycle_graph,
    path_graph,
)
from geodesic.replay import enumeration_n6


def relabeled(h: Hypergraph3, perm: list[int]) -> Hypergraph3:
    return Hypergraph3.from_triples(h.n, [tuple(perm[v] for v in t) for t in h.triples])


def _brute_canonical_form(h: Hypergraph3) -> bytes:
    """Reference form: the least triple bitmask over every relabeling that
    sends equal-degree vertices to one block of positions, blocks in
    increasing degree, with the sorted degree sequence in front."""
    triple_index = {t: i for i, t in enumerate(itertools.combinations(range(h.n), 3))}
    degs = h.degrees()
    classes: dict[int, list[int]] = {}
    for v in range(h.n):
        classes.setdefault(degs[v], []).append(v)
    ordered_classes = [classes[d] for d in sorted(classes)]
    starts = []
    at = 0
    for cls in ordered_classes:
        starts.append(at)
        at += len(cls)
    best: Optional[int] = None
    triples = sorted(h.triples)
    for combo in itertools.product(*[itertools.permutations(cls) for cls in ordered_classes]):
        relabel = [0] * h.n
        for cls_perm, start in zip(combo, starts):
            for i, v in enumerate(cls_perm):
                relabel[v] = start + i
        mask = 0
        for a, b, c in triples:
            x, y, z = sorted((relabel[a], relabel[b], relabel[c]))
            mask |= 1 << triple_index[(x, y, z)]
        if best is None or mask < best:
            best = mask
    degseq = ",".join(str(d) for d in sorted(degs))
    return f"{h.n}|{degseq}|{best:x}".encode()


def from_mask(n: int, mask: int) -> Hypergraph3:
    pool = itertools.combinations(range(n), 3)
    return Hypergraph3.from_triples(n, [t for i, t in enumerate(pool) if mask >> i & 1])


def decode_form(form: bytes) -> Hypergraph3:
    n, mask = form.decode().split("|")
    return from_mask(int(n), int(mask, 16))


def assert_same_equalities(hs: list[Hypergraph3]) -> int:
    """The new form and the reference split ``hs`` into the same classes;
    returns the number of classes."""
    pairs = {(canonical_form(h), _brute_canonical_form(h)) for h in hs}
    assert len({new for new, _ in pairs}) == len(pairs) == len({ref for _, ref in pairs})
    return len(pairs)


def five_vertex_classes() -> list[Hypergraph3]:
    reps: dict[bytes, Hypergraph3] = {}
    for mask in range(1 << 10):
        h = from_mask(5, mask)
        reps.setdefault(canonical_form(h), h)
    return list(reps.values())


def flipped(h: Hypergraph3, t) -> Hypergraph3:
    return Hypergraph3(h.n, h.triples ^ {t})


def cyclic_z8() -> Hypergraph3:
    return Hypergraph3.from_triples(8, [(i, (i + 1) % 8, (i + 3) % 8) for i in range(8)])


class TestCanonicalForm:
    def test_relabelings_collide(self):
        h = based_hypergraph(cycle_graph(4))
        rng = random.Random(3)
        for _ in range(10):
            perm = list(range(h.n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(h, perm)) == canonical_form(h)

    def test_different_hypergraphs_differ(self):
        c5 = based_hypergraph(cycle_graph(5))
        p5 = based_hypergraph(path_graph(5))
        assert canonical_form(c5) != canonical_form(p5)

    def test_empty_vs_complete(self):
        empty = Hypergraph3.from_triples(4, [])
        full = Hypergraph3.from_triples(4, itertools.combinations(range(4), 3))
        assert canonical_form(empty) != canonical_form(full)

    def test_classifies_all_4_vertex_hypergraphs(self):
        # 5 isomorphism classes of 3-uniform hypergraphs on 4 vertices
        all4 = list(itertools.combinations(range(4), 3))
        forms = set()
        for mask in range(1 << 4):
            h = Hypergraph3.from_triples(4, [t for i, t in enumerate(all4) if mask >> i & 1])
            forms.add(canonical_form(h))
        assert len(forms) == 5

    def test_size_cap(self):
        with pytest.raises(ValueError):
            canonical_form(Hypergraph3.from_triples(9, []))


class TestAgainstReference:
    """The refined form has exactly the equalities of the brute-force
    minimum over degree-compatible relabelings."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_labelled_hypergraph(self, n):
        pool_size = n * (n - 1) * (n - 2) // 6
        classes = assert_same_equalities([from_mask(n, mask) for mask in range(1 << pool_size)])
        assert classes == {3: 2, 4: 5, 5: 34}[n]  # OEIS A000665

    def test_one_vertex_extensions_of_five_vertex_classes(self):
        parents = five_vertex_classes()
        assert len(parents) == 34
        pairs = list(itertools.combinations(range(5), 2))
        extensions = [
            Hypergraph3(6, p.triples | {(u, v, 5) for i, (u, v) in enumerate(pairs) if picks >> i & 1})
            for p in parents
            for picks in range(1 << len(pairs))
        ]
        assert len(extensions) == 34_816
        assert assert_same_equalities(extensions) == 2136  # OEIS A000665

    @pytest.mark.parametrize("n", [7, 8])
    def test_seeded_relabelings_and_flipped_controls(self, n):
        rng = random.Random(n)
        pool = list(itertools.combinations(range(n), 3))
        for _ in range(6):
            density = rng.choice([0.2, 0.5, 0.8])
            h = Hypergraph3.from_triples(n, [t for t in pool if rng.random() < density])
            family = [h, flipped(h, rng.choice(pool))]
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                family.append(relabeled(h, perm))
            assert assert_same_equalities(family) == 2
            assert len({canonical_form(g) for g in family[2:]} | {canonical_form(h)}) == 1

    def test_empty_and_complete(self):
        for n in range(3, CANONICAL_MAX_VERTICES + 1):
            full = Hypergraph3.from_triples(n, itertools.combinations(range(n), 3))
            assert canonical_form(Hypergraph3.from_triples(n, [])) == f"{n}|0".encode()
            assert canonical_form(full) == f"{n}|{(1 << len(full.triples)) - 1:x}".encode()

    def test_cyclic_z8(self):
        # {i, i+1, i+2} on Z_8 is also 3-regular with 8 triples, but two of
        # its triples share a pair; refinement alone splits neither
        h = cyclic_z8()
        consecutive = Hypergraph3.from_triples(8, [(i, (i + 1) % 8, (i + 2) % 8) for i in range(8)])
        rng = random.Random(8)
        family = [h, flipped(h, (0, 1, 2)), flipped(h, (0, 1, 3)), consecutive]
        for g in (h, h, consecutive):
            perm = list(range(8))
            rng.shuffle(perm)
            family.append(relabeled(g, perm))
        assert assert_same_equalities(family) == 4


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_form_invariant_under_relabeling(data):
    n = data.draw(st.integers(3, CANONICAL_MAX_VERTICES))
    pool = list(itertools.combinations(range(n), 3))
    h = Hypergraph3.from_triples(n, data.draw(st.sets(st.sampled_from(pool))))
    perm = data.draw(st.permutations(range(n)))
    form = canonical_form(h)
    assert canonical_form(relabeled(h, perm)) == form
    decoded = decode_form(form)
    assert canonical_form(decoded) == form
    if n <= 6:
        assert _brute_canonical_form(decoded) == _brute_canonical_form(h)


class TestEnumeration:
    def test_n3_empty(self):
        res = enumerate_minimal_nonmetric(3)
        assert res.found == ()
        assert res.classes_examined == 2

    def test_n4_empty(self):
        res = enumerate_minimal_nonmetric(4)
        assert res.found == ()
        assert res.classes_examined == 5

    def test_n5_empty_and_class_count(self):
        # every 3-uniform hypergraph on five vertices is metric
        res = enumerate_minimal_nonmetric(5)
        assert res.found == ()
        assert res.classes_examined == 34

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_minimal_nonmetric(7)
        with pytest.raises(ValueError):
            enumerate_minimal_nonmetric(2)

    def test_results_equal_whatever_their_time(self):
        first, second = enumerate_minimal_nonmetric(5), enumerate_minimal_nonmetric(5)
        assert first == second and hash(first) == hash(second)
        assert dataclasses.replace(first, elapsed=first.elapsed + 1.0) == first

    def test_found_entries_are_minimal(self):
        # spot-check the first few findings of the complete n=6 run
        res = enumeration_n6()
        assert len(res.found) == 748
        assert res.classes_examined == 2136
        for h in res.found[:3]:
            assert not decide_metric(h).metric
            for v in range(h.n):
                assert decide_metric(h.delete_vertex(v)).metric
