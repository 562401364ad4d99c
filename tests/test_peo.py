from itertools import permutations

import pytest

from cliquevec import (
    Graph,
    Peo,
    is_chordal,
    maximal_cliques,
    monotone_neighbors,
    special_peo,
    verify_special_peo,
)
from cliquevec.peo import _s_of_clique, is_valid_peo


def test_peo_type():
    p = Peo((2, 0, 1))
    assert p.position(2) == 0 and p.position(1) == 2
    assert len(p) == 3
    with pytest.raises(ValueError):
        Peo((0, 0, 1))


def test_special_peo_anchored_example(bp12):
    peo = special_peo(bp12, (0, 1, 2, 3))
    assert peo.order == (4, 5, 6, 3, 2, 1, 0)
    report = verify_special_peo(bp12, (0, 1, 2, 3), peo)
    assert report == dict.fromkeys(("peo_property", "a", "b", "c", "d"))


def test_special_peo_path():
    g = Graph.path(3)
    peo = special_peo(g, (2, 1))  # x_1 = 2 goes last
    assert peo.order == (0, 1, 2)


def test_special_peo_star_ends_with_anchor():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])  # center 0
    peo = special_peo(g, (1, 0))  # anchor {0, 1} with x_1 = 1
    assert peo.order[-2:] == (0, 1)
    assert is_valid_peo(g, peo.order)


def test_special_peo_rejects_bad_inputs():
    with pytest.raises(ValueError):
        special_peo(Graph.cycle(4), (0, 1))  # not chordal
    with pytest.raises(ValueError):
        special_peo(Graph.complete(3), (0, 1, 2))  # complete
    with pytest.raises(ValueError):
        special_peo(Graph.path(3), (0, 2))  # not a clique


def test_special_peo_rejects_non_maximal_clique():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        special_peo(g, (0, 1))  # contained in the triangle


def test_monotone_neighbors(bp12):
    peo = special_peo(bp12, (0, 1, 2, 3))
    assert monotone_neighbors(bp12, peo, 0) == ()  # last vertex
    assert monotone_neighbors(bp12, peo, 5) == (1, 0)
    assert monotone_neighbors(bp12, peo, 2) == (1, 0)


def test_s_of_clique(bp12):
    peo = special_peo(bp12, (0, 1, 2, 3))
    assert _s_of_clique(bp12, peo, {0, 1, 2, 3}) == frozenset()
    assert _s_of_clique(bp12, peo, {6, 2, 3}) == frozenset({2, 3})
    assert _s_of_clique(bp12, peo, {5, 0, 1}) == frozenset()
    with pytest.raises(ValueError):
        _s_of_clique(bp12, peo, {0, 1})  # not maximal


def test_verify_rejects_anchor_misplacement(bp12):
    bad = Peo((0, 1, 2, 3, 4, 5, 6))  # x_1 = 0 sits first instead of last
    report = verify_special_peo(bp12, (0, 1, 2, 3), bad)
    assert report["a"] is not None


def test_verify_detects_non_peo():
    g = Graph.path(4)
    report = verify_special_peo(g, (3, 2), Peo((1, 0, 2, 3)))
    assert report["peo_property"] == "not a PEO"


def test_verify_reports_an_ordering_of_the_wrong_length():
    # failures are data: an ordering shorter or longer than the graph fails
    # every check, with both lengths as the witness, and raises nothing
    for order in ((0, 1, 2), (0, 1, 2, 3, 4)):
        report = verify_special_peo(Graph.path(4), (3, 2), Peo(order))
        witness = {"peo_length": len(order), "n": 4}
        assert report == dict.fromkeys(("peo_property", "a", "b", "c", "d"), witness)


def test_clique_counting_identity(corpus_small):
    from math import comb

    from conftest import brute_clique_counts

    for g in corpus_small[:40]:
        _, peo = is_chordal(g)
        degs = [
            sum(1 for u in g.neighbors(v) if peo.position(u) > peo.position(v))
            for v in range(g.n)
        ]
        counts = brute_clique_counts(g)
        for i in range(1, len(counts) + 1):
            assert sum(comb(ns, i - 1) for ns in degs) == counts[i - 1]


def test_special_peo_core_guarantees_on_corpus(corpus_small):
    """PEO property and the anchored-position condition always hold; the
    finer conditions (b)-(d) can genuinely fail (see the 3-sun test) and are
    collected as findings."""
    ambiguous = 0
    checked = 0
    for g in corpus_small[:60]:
        if g.n < 2 or g.is_complete():
            continue
        for k in maximal_cliques(g):
            k_order = tuple(sorted(k, reverse=True))
            peo = special_peo(g, k_order)
            report = verify_special_peo(g, k_order, peo)
            assert report["peo_property"] is None
            assert report["a"] is None
            checked += 1
            if report["b"] or report["c"] or report["d"]:
                ambiguous += 1
    assert checked > 100
    # the corpus regularly contains sun-like configurations
    print(f"\nanchored-PEO fine conditions: {ambiguous}/{checked} flagged instances")


def test_sun3_breaks_fine_conditions_for_every_anchor_order(sun3):
    """For the 3-sun and its central triangle, no ordering of the anchor
    satisfies conditions (b)-(d) together with the pinned positions; the
    conditions are reported as data rather than repaired or hidden."""
    assert is_chordal(sun3)[0]
    for k_order in permutations((3, 4, 5)):
        peo = special_peo(sun3, k_order)
        report = verify_special_peo(sun3, k_order, peo)
        assert report["peo_property"] is None and report["a"] is None
        assert report["b"] or report["c"] or report["d"]
