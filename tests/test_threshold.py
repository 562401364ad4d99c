from itertools import combinations, product

import pytest

from cliquevec import (
    Graph,
    ProfileMismatch,
    bvector_from_word,
    b_from_c,
    clique_complex,
    clique_vector,
    graph_from_word,
    is_shifted,
    normalize_word,
    random_word,
    recognize_threshold,
    shifted_vertex_order,
    threshold_labeling,
    threshold_profile,
    word_from_bvector,
)
from conftest import has_forbidden_threshold_subgraph, oracle_graphs, to_networkx


def all_words(max_len):
    for length in range(1, max_len + 1):
        for tail in product("SD", repeat=length - 1):
            yield "S" + "".join(tail)


def test_normalize_word():
    assert normalize_word("sdds") == "SDDS"
    assert normalize_word("DDS") == "SDS"  # first letter forced to S
    for bad in ("", "SXD", "12"):
        with pytest.raises(ValueError):
            normalize_word(bad)


def test_graph_from_word_examples():
    assert graph_from_word("S").n == 1
    g = graph_from_word("SDSDDS")
    assert g.edges() == [(0, 2), (0, 5), (1, 2), (1, 5), (2, 5), (3, 5), (4, 5)]
    assert graph_from_word("SSSS") == Graph.complete(4)


def test_recognition_examples(bp12):
    assert recognize_threshold(graph_from_word("SDSDDS")) == "SDSDDS"
    assert recognize_threshold(Graph.path(4)) is None
    assert recognize_threshold(bp12) is None  # induced P4: 4-0-2-6


def test_recognition_roundtrip_exhaustive():
    for w in all_words(9):
        assert recognize_threshold(graph_from_word(w)) == w


def test_recognition_matches_forbidden_subgraph_oracle():
    import random

    rng = random.Random(21)
    for _ in range(250):
        n = rng.randint(1, 7)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        word = recognize_threshold(g)
        assert (word is None) == has_forbidden_threshold_subgraph(g)


def test_recognition_certificate_is_isomorphism():
    import random

    rng = random.Random(5)
    for _ in range(100):
        w = random_word(rng.randint(1, 10), rng.getrandbits(32))
        g = graph_from_word(w)
        # relabel by a random permutation, then peel
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        word, labels = threshold_labeling(h)
        assert word == w
        rebuilt = graph_from_word(word)
        for u, v in combinations(range(g.n), 2):
            assert rebuilt.has_edge(u, v) == h.has_edge(labels[u], labels[v])


def test_bvector_from_word_examples():
    assert bvector_from_word("SDSDDS") == (1, 3, 2)
    assert bvector_from_word("SSSS") == (1, 1, 1, 1)
    assert bvector_from_word("SDSDSDDSDS") == (1, 2, 3, 2, 2)


def test_word_from_bvector_examples():
    assert word_from_bvector((1, 3, 2)) == "SDSDDS"
    assert word_from_bvector((1, 4, 3, 2)) == "SDSDDSDDDS"
    for d in range(1, 7):
        assert word_from_bvector((1,) * d) == "S" * d
    with pytest.raises(ValueError):
        word_from_bvector((1, 0, 2))


def test_word_bvector_bijection_exhaustive():
    for w in all_words(10):
        b = bvector_from_word(w)
        assert all(x >= 1 for x in b)
        assert word_from_bvector(b) == w
        assert b == b_from_c(clique_vector(graph_from_word(w)))


def test_profile_examples():
    p = threshold_profile("SDSDDS")
    assert p.kappa == 1
    assert p.minimum_cut == frozenset({5})
    assert p.dominating_numbers == (1, 3, 2)
    assert len(p.maximal_cliques_by_size[2]) == 2
    assert len(p.maximal_cliques_by_size[3]) == 2

    p = threshold_profile("SDSDSDDSDS")
    assert p.kappa == 1 and p.dominating_numbers[1] == 2

    p = threshold_profile("SDDSS")
    assert p.kappa == 2
    assert p.b_vector == (1, 1, 3) == p.dominating_numbers


def test_profile_rejects_complete():
    with pytest.raises(ValueError):
        threshold_profile("SSS")


def test_profile_brute_verification_random_words():
    import random

    rng = random.Random(1234)
    for _ in range(60):
        w = random_word(rng.randint(2, 11), rng.getrandbits(32))
        if "D" not in w:
            continue
        threshold_profile(w, verify=True)  # raises ProfileMismatch on any lie


def test_profile_verification_catches_lies(monkeypatch):
    import cliquevec.threshold as th

    p = threshold_profile("SDSDDS", verify=False)
    doctored = th.ThresholdProfile(
        word=p.word,
        n=p.n,
        clique_number=p.clique_number,
        kappa=p.kappa + 1,
        minimum_cut=p.minimum_cut,
        b_vector=p.b_vector,
        maximal_cliques_by_size=p.maximal_cliques_by_size,
        nested_clique=p.nested_clique,
        dominating_numbers=p.dominating_numbers,
        components_after_cut=p.components_after_cut,
    )
    with pytest.raises(ProfileMismatch):
        th._verify_profile(doctored)


def test_word_observations_brute(corpus_small):
    """Clique number = #S; at most one component of T - Y has >= 2 vertices,
    for every vertex subset Y."""
    import random

    rng = random.Random(77)
    for _ in range(40):
        w = random_word(rng.randint(2, 10), rng.getrandbits(32))
        g = graph_from_word(w)
        assert len(clique_vector(g)) == w.count("S")
        masks = g._masks
        full = (1 << g.n) - 1
        for y in range(full + 1):
            avail = full & ~y
            big = 0
            rest = avail
            while rest:
                start = rest & -rest
                comp = start
                frontier = start
                while frontier:
                    nxt = 0
                    t = frontier
                    while t:
                        b = t & -t
                        t ^= b
                        nxt |= masks[b.bit_length() - 1]
                    frontier = nxt & rest & ~comp
                    comp |= frontier
                if comp.bit_count() >= 2:
                    big += 1
                rest &= ~comp
            assert big <= 1, (w, bin(y))


def test_strict_cut_sum_inequality_small_words():
    from cliquevec import cut_component_sum

    import random

    rng = random.Random(99)
    for _ in range(40):
        w = random_word(rng.randint(2, 10), rng.getrandbits(32))
        if "D" not in w:
            continue
        p = threshold_profile(w, verify=False)
        b, kappa, d = p.b_vector, p.kappa, p.clique_number
        g = graph_from_word(w)
        for i in range(kappa + 1, d):
            assert b[i] < cut_component_sum(g, i), (w, i)


def test_clique_complexes_of_words_are_shifted():
    for w in all_words(8):
        cx = clique_complex(graph_from_word(w))
        assert is_shifted(cx, shifted_vertex_order(w)), w


def test_recognition_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.threshold import is_threshold_graph

    graphs = oracle_graphs(seed=3141, count=160)
    graphs += [graph_from_word(random_word(n, n)) for n in range(1, 13)]
    verdicts = []
    for g in graphs:
        threshold = recognize_threshold(g) is not None
        assert threshold == is_threshold_graph(to_networkx(nx, g))
        verdicts.append(threshold)
    assert 20 < sum(verdicts) < len(graphs) - 20
