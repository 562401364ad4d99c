from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquevec import (
    Graph,
    b_from_c,
    clique_vector,
    cliques_of_size,
    components,
    dominating_number,
    dominating_numbers,
    graph_from_word,
    is_chordal,
    kappa_tilde,
    maximal_cliques,
    random_chordal,
    vertex_connectivity,
)
from cliquevec.cliques import _cliques_by_size

from conftest import brute_clique_counts, brute_maximal_cliques, oracle_graphs


def test_clique_vector_examples(bp12):
    assert clique_vector(graph_from_word("SDSDDS")) == (6, 7, 2)
    assert clique_vector(Graph.complete(3)) == (3, 3, 1)
    assert clique_vector(bp12) == (7, 11, 6, 1)
    assert clique_vector(Graph(3, [])) == (3,)


def test_clique_vector_matches_brute_force(corpus_small):
    for g in corpus_small[:40]:
        if g.n <= 9:
            assert clique_vector(g) == brute_clique_counts(g)


def test_clique_vector_general_path_agrees_on_chordal(corpus_small):
    for g in corpus_small[:25]:
        assert tuple(map(len, _cliques_by_size(g)[1:])) == clique_vector(g)


def test_clique_vector_non_chordal():
    assert clique_vector(Graph.cycle(4)) == (4, 4)
    assert clique_vector(Graph.cycle(5)) == (5, 5)


def test_maximal_cliques_examples(bp12):
    assert maximal_cliques(Graph.path(3)) == [frozenset({0, 1}), frozenset({1, 2})]
    assert set(maximal_cliques(bp12)) == {
        frozenset({0, 1, 2, 3}),
        frozenset({0, 4}),
        frozenset({0, 1, 5}),
        frozenset({2, 3, 6}),
    }
    assert maximal_cliques(Graph.complete(4)) == [frozenset({0, 1, 2, 3})]
    assert maximal_cliques(Graph(3, [])) == [frozenset({v}) for v in range(3)]


def test_maximal_cliques_match_oracle(corpus_small):
    import random

    for g in corpus_small[:30]:
        if g.n <= 8:
            assert set(maximal_cliques(g)) == brute_maximal_cliques(g)
    rng = random.Random(3)
    for _ in range(40):  # non-chordal path through Bron-Kerbosch
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
        assert set(maximal_cliques(g)) == brute_maximal_cliques(g)


def _random_k_tree(n: int, k: int, seed: int) -> Graph:
    """Seeded k-tree: K_{k+1}, then each new vertex joins a random k-clique."""
    import random

    rng = random.Random(seed)
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    cliques = [tuple(range(k + 1))]  # the (k+1)-cliques so far
    for v in range(k + 1, n):
        base = list(cliques[rng.randrange(len(cliques))])
        base.pop(rng.randrange(k + 1))
        edges += [(u, v) for u in base]
        cliques.append((*base, v))
    return Graph(n, edges)


def test_maximal_cliques_match_networkx(corpus300):
    import random

    nx = pytest.importorskip("networkx")

    def check(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert set(maximal_cliques(g)) == {frozenset(c) for c in nx.find_cliques(h)}

    for g in corpus300:
        check(g)
    for n, k, seed in ((200, 20, 1), (300, 5, 2)):
        g = _random_k_tree(n, k, seed)
        assert len(maximal_cliques(g)) == n - k
        check(g)
    rng = random.Random(45)
    for _ in range(30):  # G(n, 0.45), mostly non-chordal
        n = rng.randint(1, 14)
        check(
            Graph(
                n,
                [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45],
            )
        )


def test_maximal_cliques_deeper_than_recursion_limit():
    import sys

    n = sys.getrecursionlimit() + 500
    g = Graph.complete(n)
    assert maximal_cliques(g) == [frozenset(range(n))]
    assert kappa_tilde(g) == 0


def test_peo_route_covers_maximal_cliques(corpus_small):
    from cliquevec import is_chordal
    from cliquevec.peo import monotone_neighbors

    for g in corpus_small[:25]:
        _, peo = is_chordal(g)
        candidates = {
            frozenset({v}) | frozenset(monotone_neighbors(g, peo, v))
            for v in range(g.n)
        }
        for c in maximal_cliques(g):
            assert c in candidates


def test_kappa_tilde_examples(bp12):
    assert kappa_tilde(bp12) == 2
    assert kappa_tilde(Graph.path(3)) == 1
    assert kappa_tilde(Graph(4, [(0, 1), (2, 3)])) == 0
    assert kappa_tilde(Graph.complete(5)) == 0  # single maximal clique


def test_kappa_le_kappa_tilde(corpus_small):
    for g in corpus_small:
        if g.n >= 2 and not g.is_complete() and vertex_connectivity(g) >= 1:
            assert vertex_connectivity(g) <= kappa_tilde(g)


def test_dominating_number_examples(bp12):
    d2, witness = dominating_number(bp12, 2)
    assert d2 == 3
    d1, witness1 = dominating_number(bp12, 1)
    assert d1 == 2
    d4, witness4 = dominating_number(bp12, 4)
    assert d4 == 1 and witness4 == [frozenset({0, 1, 2, 3})]
    assert dominating_number(bp12, 3)[0] == 3


def test_dominating_witness_is_valid(bp12, corpus_small):
    def check(g, i):
        size, witness = dominating_number(g, i)
        assert len(witness) == size
        universe = [c for c in maximal_cliques(g) if len(c) >= i]
        for target in universe:
            assert any(w <= target for w in witness)
        for w in witness:
            assert len(w) == i and w in set(cliques_of_size(g, i))

    for i in range(1, 5):
        check(bp12, i)
    for g in corpus_small[:20]:
        d = max(len(c) for c in maximal_cliques(g))
        for i in range(1, d + 1):
            check(g, i)


def test_dominating_number_errors(bp12):
    with pytest.raises(ValueError):
        dominating_number(bp12, 0)
    with pytest.raises(ValueError):
        dominating_number(bp12, 5)


def test_dominating_equals_tail_count_beyond_ktilde(corpus_small):
    for g in corpus_small[:40]:
        if g.n < 2 or g.is_complete():
            continue
        cliques = maximal_cliques(g)
        d = max(len(c) for c in cliques)
        kt = kappa_tilde(g)
        prev = None
        for i in range(kt + 1, d + 1):
            di, _ = dominating_number(g, i)
            assert di == sum(1 for c in cliques if len(c) >= i)
            if prev is not None:
                assert di <= prev
            prev = di


def test_alternating_clique_sum_counts_components(corpus_small):
    from cliquevec import components

    for g in corpus_small:
        c = clique_vector(g)
        assert sum((-1) ** i * ci for i, ci in enumerate(c)) == components(g)[0]


# Edgeless, one-vertex and disconnected graphs next to the seeded ones.
SPECIAL_GRAPHS = [Graph(6), Graph(1), Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])]


def brute_dominating_numbers(g: Graph) -> tuple[int, ...]:
    """d_i as the fewest i-cliques, tried in every combination, such that
    each maximal clique of order >= i contains one of them."""
    maximal = brute_maximal_cliques(g)
    d = max(len(c) for c in maximal)
    out = []
    for i in range(1, d + 1):
        universe = [c for c in maximal if len(c) >= i]
        candidates = [frozenset(s) for c in universe for s in combinations(sorted(c), i)]
        candidates = sorted(set(candidates), key=sorted)
        k = next(
            k
            for k in range(1, len(universe) + 1)
            if any(
                all(any(s <= c for s in family) for c in universe)
                for family in combinations(candidates, k)
            )
        )
        out.append(k)
    return tuple(out)


def test_dominating_numbers_match_dominating_number(corpus300):
    graphs = [*corpus300, *SPECIAL_GRAPHS, *oracle_graphs(seed=7007, count=160)]
    assert any(not is_chordal(g)[0] for g in graphs)
    assert any(components(g)[0] > 1 for g in graphs)
    for g in graphs:
        d = len(clique_vector(g))
        expected = tuple(dominating_number(g, i)[0] for i in range(1, d + 1))
        assert dominating_numbers(g) == expected


def test_dominating_numbers_match_brute_force(corpus_small):
    graphs = [g for g in corpus_small if g.n <= 8] + SPECIAL_GRAPHS
    graphs += oracle_graphs(seed=8008, count=120, max_n=8)
    assert len(graphs) > 80
    for g in graphs:
        assert dominating_numbers(g) == brute_dominating_numbers(g)


def test_dominating_numbers_errors():
    with pytest.raises(ValueError):
        dominating_numbers(Graph(0))


@st.composite
def relabeled_pairs(draw, max_n=9):
    """A chordal or arbitrary graph and a copy under a random relabelling."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        width = draw(st.integers(min_value=1, max_value=min(4, n)))
        g = random_chordal(n, width, draw(st.integers(min_value=0, max_value=2**32)))
    else:
        pairs = list(combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, k in zip(pairs, keep) if k])
    perm = draw(st.permutations(range(n)))
    return g, Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])


@given(relabeled_pairs())
@settings(max_examples=120, deadline=None)
def test_invariants_do_not_change_under_relabeling(pair):
    g, h = pair
    assert clique_vector(g) == clique_vector(h)
    assert b_from_c(clique_vector(g)) == b_from_c(clique_vector(h))
    assert vertex_connectivity(g) == vertex_connectivity(h)
    assert kappa_tilde(g) == kappa_tilde(h)
    assert dominating_numbers(g) == dominating_numbers(h)
