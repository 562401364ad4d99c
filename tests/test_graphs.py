import copy
import hashlib
import pickle
import random
from itertools import combinations

import pytest

from cliquevec import (
    Graph,
    GraphFormatError,
    cliques_of_size,
    components,
    cut_component_sum,
    format_graph,
    is_chordal,
    parse_graph,
    random_chordal,
    vertex_connectivity,
)
from cliquevec.graphs import (
    MAX_PARSED_VERTICES,
    _max_cardinality_search,
    clique_walk,
)
from cliquevec.peo import is_valid_peo

from conftest import (
    brute_is_chordal,
    brute_vertex_connectivity,
    dsu_component_count,
    oracle_graphs,
    to_networkx,
)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.m == 2
    assert g.degree(1) == 2
    assert g.neighbors(3) == frozenset()
    assert not g.is_complete()
    assert Graph.complete(4).is_complete()
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


def test_mask_views_match_frozenset_references():
    """Every accessor derived from the adjacency masks agrees with an
    adjacency built as frozensets from the raw edge list."""
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(0, 12)
        p = rng.choice((0.2, 0.5, 0.8))
        edges = [e if rng.random() < 0.5 else e[::-1] for e in combinations(range(n), 2) if rng.random() < p]
        edges += edges[: rng.randint(0, 3)]  # repeated edges
        rng.shuffle(edges)
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        pairs = sorted({(min(e), max(e)) for e in edges})
        g = Graph(n, edges)
        assert [g.neighbors(v) for v in range(n)] == [frozenset(s) for s in adj]
        assert [g.degree(v) for v in range(n)] == [len(s) for s in adj]
        assert all(
            g.has_edge(u, v) is (0 <= u < n and v in adj[u])
            for u in range(-1, n + 1)
            for v in range(-1, n + 1)
        )
        assert g.edges() == pairs
        assert g.m == len(pairs)
        same = Graph(n, [e[::-1] for e in reversed(edges)])
        assert same == g and hash(same) == hash(g)
        assert Graph(n + 1, edges) != g
        if pairs:
            drop = set(rng.choice(pairs))
            assert Graph(n, [e for e in edges if set(e) != drop]) != g


def test_graph_copies_and_pickles_with_an_empty_memo(bp12):
    g = Graph(bp12.n, bp12.edges())
    is_chordal(g)
    cliques_of_size(g, 2)
    assert g._memo
    for dup in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert dup == g and hash(dup) == hash(g)
        assert dup is not g
        assert dup._memo == {}
        assert dup.edges() == g.edges()
        assert is_chordal(dup) == is_chordal(g)
    assert pickle.loads(pickle.dumps(Graph(0))) == Graph(0)


def test_components_examples(bp12):
    assert components(Graph.path(3))[0] == 1
    two = Graph(2, [])
    assert components(two) == (2, (0, 1))
    without_x1 = Graph(6, [(u - 1, v - 1) for u, v in bp12.edges() if u])  # delete vertex 0
    assert components(without_x1)[0] == 2
    assert components(Graph(0))[0] == 0


def test_components_labeling_canonical():
    g = Graph(5, [(1, 3), (0, 4)])
    count, labels = components(g)
    assert count == 3
    assert labels == (0, 1, 2, 1, 0)


def test_is_chordal_examples(bp12):
    assert is_chordal(Graph.cycle(4)) == (False, None)
    ok, peo = is_chordal(Graph.path(3))
    assert ok and is_valid_peo(Graph.path(3), peo.order)
    assert is_chordal(bp12)[0]
    for k in range(4, 9):
        assert not is_chordal(Graph.cycle(k))[0]


def test_is_chordal_matches_elimination_oracle(corpus_small):
    import random

    rng = random.Random(7)
    for g in corpus_small[:60]:
        assert is_chordal(g)[0] == brute_is_chordal(g) is True
    for _ in range(120):
        n = rng.randint(1, 7)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        flag, witness = is_chordal(g)
        assert flag == brute_is_chordal(g)
        if flag:
            assert is_valid_peo(g, witness.order)


def test_vertex_connectivity_examples(bp12):
    assert vertex_connectivity(Graph.path(3)) == 1
    assert vertex_connectivity(bp12) == 1
    k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert vertex_connectivity(k4_minus) == brute_vertex_connectivity(k4_minus) == 2
    assert vertex_connectivity(Graph.complete(5)) == 4
    assert vertex_connectivity(Graph(1)) == 0
    assert vertex_connectivity(Graph(3, [(0, 1)])) == 0
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(0))


def test_vertex_connectivity_matches_oracle(corpus_small):
    for g in corpus_small[:40]:
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)


def test_connectivity_component_duality(corpus_small):
    for g in corpus_small:
        if g.n >= 2:
            assert (components(g)[0] == 1) == (vertex_connectivity(g) >= 1)


def test_cut_component_sum_examples(bp12):
    assert cut_component_sum(Graph.path(3), 0) == 0
    assert cut_component_sum(Graph.path(3), 1) == 1
    assert cut_component_sum(bp12, 1) == 1
    # deleting everything or all but one vertex never contributes
    assert cut_component_sum(Graph.path(3), 3) == 0
    with pytest.raises(ValueError):
        cut_component_sum(Graph.path(3), 4)


def test_cut_component_sum_matches_dsu_oracle(corpus_small):
    from itertools import combinations

    for g in corpus_small[:25]:
        for k in range(0, min(g.n, 4)):
            expected = 0
            for sub in combinations(range(g.n), k):
                w = dsu_component_count(g, set(sub))
                expected += max(w - 1, 0)
            assert cut_component_sum(g, k) == expected


def test_cut_component_sum_vanishes_below_connectivity(corpus_small):
    for g in corpus_small:
        if g.n < 2 or g.is_complete():
            continue
        kappa = vertex_connectivity(g)
        for k in range(kappa):
            assert cut_component_sum(g, k) == 0
        assert cut_component_sum(g, kappa) > 0


def test_random_chordal_properties():
    g = random_chordal(1, 1, 123)
    assert g.n == 1 and g.m == 0
    for seed in range(50):
        g = random_chordal(6, 6, seed)
        assert is_chordal(g)[0]


def test_random_chordal_draws_are_chordal():
    # library invariant: 1000 seeded draws with n <= 15 are all chordal
    import random

    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        n = rng.randint(1, 15)
        width = rng.randint(1, min(4, n))
        g = random_chordal(n, width, rng.getrandbits(32))
        assert is_chordal(g)[0]


def test_random_chordal_regression_fixture():
    g = random_chordal(8, 3, 42)
    assert g.edges() == [(0, 4), (0, 6), (1, 3), (1, 5), (4, 6), (4, 7), (6, 7)]


def test_random_chordal_draws_are_pinned():
    # The verify --random corpora and the benchmark's generator copy rely on
    # these exact draws: a digest of 300 seeded graphs, n <= 15, width 1..4.
    rng = random.Random(300)
    digest = hashlib.sha256()
    for _ in range(300):
        n = rng.randint(1, 15)
        width = rng.randint(1, min(4, n))
        digest.update(format_graph(random_chordal(n, width, rng.getrandbits(32))).encode())
    assert digest.hexdigest() == "e1b285035016b4de2c39e59a859136bfec029777bd8381d2a57536913d2d5f38"


def test_clique_walk_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(14)
    for _ in range(80):
        n = rng.randint(1, 14)
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        expected = sorted(sorted(c) for c in nx.enumerate_all_cliques(ng))

        def walk(cand, cap):
            return [
                [v for v in range(n) if m >> v & 1]
                for m in clique_walk(g._masks, cand, cap)
            ]

        # each clique once, in lexicographic (depth-first preorder) order
        assert walk((1 << n) - 1, n) == expected
        for cap in (0, 1, 2, 3):
            assert walk((1 << n) - 1, cap) == [c for c in expected if len(c) <= cap]
        cand = rng.getrandbits(n)
        inside = [c for c in expected if all(cand >> v & 1 for v in c)]
        assert walk(cand, n) == inside
        for size in (1, 2, 3):
            assert cliques_of_size(g, size) == [
                frozenset(c) for c in expected if len(c) == size
            ]


def reference_max_cardinality_search(masks) -> list[int]:
    """Maximum cardinality search as first written: each step takes the
    unvisited vertex of highest weight, smaller id first, by ``max`` over
    every unvisited vertex."""
    n = len(masks)
    weight = [0] * n
    unvisited = set(range(n))
    visit = []
    for _ in range(n):
        v = max(unvisited, key=lambda u: (weight[u], -u))
        unvisited.remove(v)
        visit.append(v)
        for u in unvisited:
            if masks[v] >> u & 1:
                weight[u] += 1
    return visit[::-1]


def test_max_cardinality_search_matches_reference(corpus300):
    rng = random.Random(606)
    non_chordal = []
    while len(non_chordal) < 200:
        n = rng.randint(4, 14)
        p = rng.choice((0.3, 0.5, 0.7))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if not brute_is_chordal(g):
            non_chordal.append(g)
    for g in [*corpus300, *non_chordal, Graph(0), Graph(5), Graph.complete(7)]:
        assert _max_cardinality_search(g._masks) == reference_max_cardinality_search(g._masks)


def test_peo_witness_simplicial_in_suffix(corpus_small):
    from itertools import combinations

    for g in corpus_small[:40]:
        _, peo = is_chordal(g)
        order = peo.order
        for p, v in enumerate(order):
            later = [u for u in g.neighbors(v) if peo.position(u) > p]
            for a, b in combinations(later, 2):
                assert g.has_edge(a, b)


def test_graph_text_roundtrip(bp12):
    text = format_graph(bp12)
    assert parse_graph(text) == bp12
    commented = "# header\n3 2 # counts\n0 1\n1 2\n"
    assert parse_graph(commented) == Graph.path(3)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 1\n0 0\n",
        "3 2\n0 1\n0 1\n",
        "3 1\n1 0\n",
        "3 1\n0 5\n",
        "3 2\n0 1\n",
        "x y\n",
    ],
)
def test_graph_text_rejects(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_graph_text_vertex_limit():
    assert parse_graph(f"{MAX_PARSED_VERTICES} 0\n").n == MAX_PARSED_VERTICES
    with pytest.raises(GraphFormatError, match=f"exceeds limit {MAX_PARSED_VERTICES}"):
        parse_graph(f"{MAX_PARSED_VERTICES + 1} 0\n")


def test_is_chordal_and_connectivity_match_networkx():
    nx = pytest.importorskip("networkx")
    graphs = oracle_graphs(seed=2718, count=160)
    verdicts = []
    for g in graphs:
        ng = to_networkx(nx, g)
        chordal = is_chordal(g)[0]
        assert chordal == nx.is_chordal(ng)
        assert vertex_connectivity(g) == nx.node_connectivity(ng)
        verdicts.append(chordal)
    assert 20 < sum(verdicts) < 150
