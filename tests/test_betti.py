import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquevec import (
    BettiTable,
    Graph,
    SimplicialComplex,
    b_from_c,
    betti_from_bvector,
    betti_from_hvector,
    clique_complex,
    clique_vector,
    cut_component_sum,
    full_betti_hochster,
    h_from_f,
    homological_profile,
    linear_strand_hochster,
    random_chordal,
    reduced_homology_ranks,
    vertex_connectivity,
)
import cliquevec.betti as betti
from cliquevec.betti import (
    CONNECTED_SET_CAP,
    DEFAULT_FACE_CAP,
    _betti_entries,
    _boundary_rank,
    _connected_set_tally,
    _faces_by_dim,
    _facet_faces,
    _hochster_scan,
    _homology_dims,
    _induced_links,
    _restriction_dims,
    _skeleton,
)
from cliquevec.complexes import CapExceeded, restrict
from cliquevec.graphs import _bits, components

# The 6-vertex real projective plane: H~_1 = Z/2, so every reduced homology
# group vanishes over Q but not over GF(2).
RP2 = SimplicialComplex(
    6,
    [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
     (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)],
)
# K_{2,2,2}: the complete graph minus a perfect matching; its clique
# complex is the octahedral 2-sphere
OCTAHEDRON = Graph(6, [e for e in combinations(range(6), 2) if e[0] // 2 != e[1] // 2])


def disjoint_union(*graphs):
    edges, off = [], 0
    for g in graphs:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    return Graph(off, edges)


def joined_by_hub(g, u, v):
    """``g`` plus one vertex adjacent to ``u`` and ``v``."""
    return Graph(g.n + 1, [*g.edges(), (u, g.n), (v, g.n)])


# Two disjoint cycles: the scan of the whole graph refuses the Mayer-Vietoris
# glue at every vertex of the union of the cycles, but the table splits them
# into components first, so only a raw scan reaches the homology engine
TWO_C4 = disjoint_union(Graph.cycle(4), Graph.cycle(4))
TWO_C5 = disjoint_union(Graph.cycle(5), Graph.cycle(5))
TWO_OCTAHEDRA = disjoint_union(OCTAHEDRON, OCTAHEDRON)
# The same cycles joined through a hub vertex adjacent to one vertex of each:
# connected, and the restriction to the two cycles reaches the engine
HUB_C4 = joined_by_hub(TWO_C4, 0, 4)
HUB_C5 = joined_by_hub(TWO_C5, 0, 5)
# A ghost vertex makes the complex non-flag, but it is a component of its
# own, so the octahedron beside it is glued at every vertex
OCTAHEDRON_AND_GHOST = SimplicialComplex(7, [sorted(f) for f in clique_complex(OCTAHEDRON).facets])


def table_of(g, **kw):
    return full_betti_hochster(clique_complex(g), **kw)


def gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def masks_of(cx):
    return [sum(1 << v for v in f) for f in cx.facets]


def test_linear_strand_examples(bp12):
    assert linear_strand_hochster(Graph.path(3)) == (1, 0)
    assert linear_strand_hochster(Graph.complete(5)) == (0, 0, 0, 0)
    strand = linear_strand_hochster(bp12)
    assert strand[4] == 1  # beta_{5,6}
    assert strand[5] == 0


def strand_by_cut_sums(g):
    return tuple(cut_component_sum(g, g.n - i - 1) for i in range(1, g.n))


def test_strand_matches_cut_sums():
    rng = random.Random(12)
    graphs = [
        Graph(1),
        Graph(2),
        Graph(9),
        Graph(12),
        Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)]),
        Graph(12, [(u, v) for u, v in combinations(range(12), 2) if u // 4 == v // 4]),
        Graph.complete(2),
        Graph.complete(12),
        Graph.path(12),
        Graph.cycle(11),
        OCTAHEDRON,
    ]
    for _ in range(220):
        n = rng.randint(1, 12)
        p = rng.choice((0.05, 0.2, 0.35, 0.5, 0.7, 0.9))
        graphs.append(gnp(n, p, rng.getrandbits(32)))
    for g in graphs:
        assert linear_strand_hochster(g) == strand_by_cut_sums(g), g.edges()


def test_strand_matches_networkx_component_counts():
    nx = pytest.importorskip("networkx")
    rng = random.Random(10)
    graphs = [Graph(1), Graph(10), Graph.complete(10), Graph.cycle(10)]
    graphs += [gnp(rng.randint(2, 10), rng.choice((0.2, 0.4, 0.7)), s) for s in range(30)]
    for g in graphs:
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges())
        expected = tuple(
            sum(
                nx.number_connected_components(ng.subgraph(w)) - 1
                for w in combinations(range(g.n), j)
            )
            for j in range(2, g.n + 1)
        )
        assert linear_strand_hochster(g) == expected


def test_connected_set_tally_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(10)
    graphs = [Graph(1), Graph(5), Graph(6, [(0, 1), (2, 3), (3, 4)]), Graph.complete(6)]
    # heavy frame merging: stars, a clique beside a cycle, and a 3-tree
    # (each vertex joined to the three before it)
    star = Graph(6, [(0, v) for v in range(1, 6)])
    graphs += [
        Graph(9, [(0, v) for v in range(1, 9)]),
        disjoint_union(star, star),
        disjoint_union(Graph.complete(4), Graph.cycle(5)),
        Graph(10, [(v - i, v) for v in range(10) for i in (1, 2, 3) if v >= i]),
    ]
    for _ in range(60):
        n = rng.randint(1, 10)
        p = rng.choice((0.1, 0.3, 0.5, 0.8))
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in graphs:
        n = g.n
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        expected: dict[tuple[int, int], int] = {}
        connected = 0
        for k in range(1, n + 1):
            for w in combinations(range(n), k):
                if nx.is_connected(ng.subgraph(w)):
                    key = (k, k + len(nx.node_boundary(ng, w)))
                    expected[key] = expected.get(key, 0) + 1
                    connected += 1
        tally = _connected_set_tally(g._masks)
        assert len(tally) == (n + 1) ** 2
        # every connected induced set counted once, keyed by (|C|, |N[C]|)
        for size in range(n + 1):
            for closed in range(n + 1):
                assert tally[size * (n + 1) + closed] == expected.get((size, closed), 0)
        assert sum(tally) == connected


def test_strand_matches_hvector_route_beyond_networkx():
    # chordal input has a 2-linear resolution, so the strand is the whole
    # of beta_1..beta_{n-1}, which the closed h-vector formula gives from
    # the clique vector alone; these sizes are out of reach of networkx and
    # the cut sums.  The path merges no frames, the star merges the most.
    graphs = [
        random_chordal(30, 3, 0),  # 432,571 connected sets
        random_chordal(30, 4, 0),
        Graph.path(200),
        Graph(20, [(0, v) for v in range(1, 20)]),  # 2^19 + 19 sets
    ]
    for g in graphs:
        c = clique_vector(g)
        d = len(c)
        totals = betti_from_hvector(h_from_f((1, *c), d), g.n, d)
        assert linear_strand_hochster(g) == totals[1 : g.n]
        assert totals[g.n] == 0


def test_strand_connected_set_cap():
    # K_20 has 2^20 - 1 connected sets, one under the cap; K_20 plus an
    # isolated vertex has exactly 2^20, the cap itself; K_20 plus two
    # isolated vertices has one set more than the cap, and K_21 has more
    assert linear_strand_hochster(Graph.complete(20)) == (0,) * 19
    assert linear_strand_hochster(Graph(21, combinations(range(20), 2))) == tuple(
        comb(20, j - 1) for j in range(2, 22)
    )
    for g in (Graph(22, combinations(range(20), 2)), Graph.complete(21)):
        with pytest.raises(
            CapExceeded,
            match=rf"^linear strand capped at {CONNECTED_SET_CAP} connected induced sets$",
        ):
            linear_strand_hochster(g)


def test_reduced_homology_examples(bp12):
    two_points = SimplicialComplex(2, [{0}, {1}])
    assert reduced_homology_ranks(two_points) == (0, 1)
    hollow = SimplicialComplex(3, [{0, 1}, {1, 2}, {0, 2}])
    assert reduced_homology_ranks(hollow) == (0, 0, 1)
    assert reduced_homology_ranks(SimplicialComplex(0)) == (1,)
    # chordal clique complexes are contractible on each component
    dims = reduced_homology_ranks(clique_complex(bp12))
    assert all(d == 0 for d in dims)
    # boundary of the tetrahedron is a 2-sphere
    sphere = SimplicialComplex(4, [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])
    assert reduced_homology_ranks(sphere) == (0, 0, 0, 1)


def test_reduced_homology_cap():
    with pytest.raises(CapExceeded):
        reduced_homology_ranks(clique_complex(Graph.complete(10)), face_cap=100)
    # two triangles on an edge have exactly 11 nonempty faces: the cap fires
    # only past that count
    diamond = SimplicialComplex(4, [{0, 1, 2}, {1, 2, 3}])
    assert reduced_homology_ranks(diamond, face_cap=11) == (0, 0, 0, 0)
    with pytest.raises(CapExceeded, match="face count exceeds cap 10"):
        reduced_homology_ranks(diamond, face_cap=10)
    # the cap bounds the work: 2^40 faces are never built
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded):
        reduced_homology_ranks(clique_complex(Graph.complete(40)), face_cap=100)
    assert time.perf_counter() - t0 < 1.0


def test_face_cap_on_the_flag_path():
    # The octahedron is read off the table (the octahedron minus a vertex
    # is a cone, its link a 4-cycle), so no restriction reaches the engine.
    # In the two 4-cycles of HUB_C4, deleting any vertex leaves H~_0 of
    # rank 1 and its link, two points, has H~_0 of rank 1 too, so the glue
    # is refused at every vertex: the engine sees both cycles, 8 + 8 faces,
    # whether the input is the graph or its clique complex.  TWO_C4 is
    # scanned one cycle at a time, so the engine never runs.
    masks = masks_of(clique_complex(OCTAHEDRON))
    assert _induced_links(masks, OCTAHEDRON._masks) == 0b111111
    assert table_of(OCTAHEDRON, face_cap=1).entries == {
        (0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1,
    }
    for cx in (HUB_C4, clique_complex(HUB_C4)):
        with pytest.raises(CapExceeded, match=r"^face count exceeds cap 15$"):
            full_betti_hochster(cx, face_cap=15)
        full_betti_hochster(cx, face_cap=16)
    assert table_of(TWO_C4, face_cap=1) == table_of(TWO_C4)


def test_hochster_table_examples(bp12):
    assert table_of(Graph.path(3)).entries == {(0, 0): 1, (1, 2): 1}
    assert table_of(Graph.complete(5)).entries == {(0, 0): 1}
    assert table_of(bp12).entries == {
        (0, 0): 1,
        (1, 2): 10,
        (2, 3): 21,
        (3, 4): 18,
        (4, 5): 7,
        (5, 6): 1,
    }


def test_hochster_non_chordal_fixture():
    # the 4-cycle: 2 missing diagonals on the strand, and the cycle class
    # itself at (2, 4), which breaks 2-linearity
    assert table_of(Graph.cycle(4)).entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_hochster_vertex_cap():
    with pytest.raises(CapExceeded):
        table_of(Graph.complete(17))
    table_of(Graph.complete(17), vertex_cap=17)


def cycle_with_leaves(k, ends):
    """C_k plus one pendant leaf on each cycle vertex in ``ends``."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(v, k + t) for t, v in enumerate(ends)]
    return Graph(k + len(ends), edges)


def interleaved_union(parts, rng):
    """The disjoint union of the complexes ``parts``, with the vertices of
    the parts shuffled together (each part keeps its own vertex order)."""
    owner = [k for k, cx in enumerate(parts) for _ in range(cx.n)]
    rng.shuffle(owner)
    slots = [[v for v, k in enumerate(owner) if k == i] for i in range(len(parts))]
    facets = [[slot[v] for v in f] for cx, slot in zip(parts, slots) for f in cx.facets]
    return SimplicialComplex(len(owner), facets)


def hochster_by_restriction(cx):
    """Hochster's formula with one homology engine call per vertex subset W."""
    entries = {}
    for j in range(cx.n + 1):
        for w in combinations(range(cx.n), j):
            for kk, h in enumerate(reduced_homology_ranks(restrict(cx, w))):
                if h:
                    entries[j - kk, j] = entries.get((j - kk, j), 0) + h
    return entries


def test_disconnected_tables_match_restriction_oracle():
    # Each component is scanned on its own and the parts joined by the
    # disjoint-union rule; the oracle runs the homology engine on every
    # restriction of the whole input instead.
    rng = random.Random(1818)
    rp2_facets = [sorted(f) for f in RP2.facets]
    cxs = [
        SimplicialComplex(7),  # seven ghost vertices
        clique_complex(Graph(6)),  # six isolated points
        clique_complex(disjoint_union(Graph(3), Graph.path(2))),
        clique_complex(TWO_OCTAHEDRA),
        SimplicialComplex(8, [*rp2_facets, (6, 7)]),  # RP^2 and an edge
        SimplicialComplex(7, rp2_facets),  # RP^2 and a ghost vertex
        SimplicialComplex(3, [{0, 1}]),  # an edge and a ghost vertex
        OCTAHEDRON_AND_GHOST,
    ]
    for _ in range(40):
        parts = []
        room = 9
        while room >= 1 and (len(parts) < 2 or rng.random() < 0.5):
            k = rng.randint(1, min(room, 5))
            room -= k
            kind = rng.randrange(4)
            seed = rng.getrandbits(32)
            if kind == 0:
                parts.append(clique_complex(gnp(k, rng.choice((0.3, 0.6, 0.9)), seed)))
            elif kind == 1:
                parts.append(clique_complex(Graph.cycle(k) if k >= 3 else Graph(k)))
            elif kind == 2:
                parts.append(clique_complex(random_chordal(k, min(k, 2), seed)))
            else:  # any complex, ghost vertices and non-flag faces allowed
                sizes = [rng.randint(1, k) for _ in range(rng.randint(0, 3))]
                parts.append(SimplicialComplex(k, [rng.sample(range(k), m) for m in sizes]))
        cxs.append(interleaved_union(parts, rng))
    for cx in cxs:
        assert full_betti_hochster(cx).entries == hochster_by_restriction(cx), cx


@st.composite
def graph_pairs(draw, max_n=5):
    graphs = []
    for _ in range(2):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        graphs.append(Graph(n, [e for e, k in zip(pairs, keep) if k]))
    return graphs


@given(graph_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_disjoint_union_table_independent_of_interleaving(pair, rng):
    g, h = pair
    mixed = interleaved_union([clique_complex(g), clique_complex(h)], rng)
    assert full_betti_hochster(mixed) == full_betti_hochster(disjoint_union(g, h))


def test_hochster_computes_each_core_once(monkeypatch):
    # Every restriction of C5 with leaves on 0..3, of the octahedron and of
    # G(12, 0.45) is read off the table by the Mayer-Vietoris glue.  In two
    # cycles joined through a hub only the two cycles are refused at every
    # vertex, so the homology engine runs once.  Two disjoint cycles are
    # scanned one cycle at a time, and the octahedron beside a ghost vertex
    # on its own, so the engine never runs.
    calls = []

    def counting(by_dim, adj):
        calls.append(by_dim)
        return _homology_dims(by_dim, adj)

    monkeypatch.setattr(betti, "_homology_dims", counting)
    table = table_of(cycle_with_leaves(5, range(4)))
    assert calls == []
    assert table.entries == {
        (0, 0): 1, (1, 2): 27, (2, 3): 105, (3, 4): 189, (3, 5): 1,
        (4, 5): 190, (4, 6): 4, (5, 6): 109, (5, 7): 6, (6, 7): 33,
        (6, 8): 4, (7, 8): 4, (7, 9): 1,
    }
    for g, want in (
        (OCTAHEDRON, 0), (gnp(12, 0.45, 12), 0), (HUB_C4, 1), (HUB_C5, 1), (TWO_C4, 0), (TWO_C5, 0)
    ):
        calls.clear()
        table_of(g)
        assert len(calls) == want, g.n
    calls.clear()
    full_betti_hochster(OCTAHEDRON_AND_GHOST)
    assert calls == []


def test_strand_matches_full_table(corpus300):
    for g in corpus300[:40]:
        table = table_of(g)
        strand = linear_strand_hochster(g)
        assert tuple(table.entry(i, i + 1) for i in range(1, g.n)) == strand


def test_betti_from_hvector_examples(bp12):
    out = betti_from_hvector((1, 1, 0), 3, 2)
    assert out == (1, 1, 0, 0)
    # zero ideal: h of a full simplex
    assert betti_from_hvector((1, 0, 0, 0), 3, 3) == (1, 0, 0, 0)
    c = clique_vector(bp12)
    h = h_from_f((1, *c), 4)
    assert betti_from_hvector(h, 7, 4) == table_of(bp12).totals()


def test_betti_from_bvector_examples(bp12):
    assert betti_from_bvector((1, 2), 3, 2) == (1, 1, 0, 0)
    assert betti_from_bvector((1, 1, 1, 1), 4, 4) == (1, 0, 0, 0, 0)
    out = betti_from_bvector((1, 2, 3, 1), 7, 4)
    assert out == table_of(bp12).totals()
    assert out[5] == 1  # b_2 - 1 at homological index n - 2


def test_betti_formula_input_validation():
    with pytest.raises(ValueError):
        betti_from_hvector((1, 0), 1, 2)
    with pytest.raises(ValueError):
        betti_from_bvector((1, 2), 3, 3)


def test_route_agreement(corpus300):
    for g in corpus300[:60]:
        c = clique_vector(g)
        d = len(c)
        table = table_of(g)
        totals = table.totals()
        assert totals == betti_from_hvector(h_from_f((1, *c), d), g.n, d)
        assert totals == betti_from_bvector(b_from_c(c), g.n, d)


def test_homological_profile_examples(bp12):
    p = homological_profile(table_of(Graph.path(3)))
    assert (p.pd, p.depth, p.is_two_linear, p.kappa_from_betti) == (1, 2, True, 1)
    p = homological_profile(table_of(bp12))
    assert (p.pd, p.depth, p.is_two_linear, p.kappa_from_betti) == (5, 2, True, 1)
    assert not homological_profile(table_of(Graph.cycle(4))).is_two_linear


def test_depth_equals_connectivity_plus_one(corpus300):
    for g in corpus300[:60]:
        p = homological_profile(table_of(g))
        assert p.is_two_linear
        assert p.depth == vertex_connectivity(g) + 1
        if not g.is_complete():
            assert p.kappa_from_betti == vertex_connectivity(g)


def test_cycles_violate_two_linearity():
    for k in range(4, 9):
        p = homological_profile(table_of(Graph.cycle(k)))
        assert not p.is_two_linear
        assert p.depth <= vertex_connectivity(Graph.cycle(k)) + 1


def test_betti_table_json():
    t = BettiTable(3, {(0, 0): 1, (1, 2): 4})
    assert t.to_json_dict() == {"n": 3, "entries": [[0, 0, "1"], [1, 2, "4"]]}
    assert t.strand() == (4, 0)
    assert t.total(1) == 4


def test_ghost_vertices_contribute_to_hochster():
    # one edge plus a ghost vertex that carries no face at all
    cx = SimplicialComplex(3, [{0, 1}])
    table = full_betti_hochster(cx)
    # I = (x2) is principal of degree 1: single Betti number at (1, 1)
    assert table.entries == {(0, 0): 1, (1, 1): 1}


def scan_by_restriction(masks, adj, size):
    """Counts by (dims, |W|), as :func:`_hochster_scan` gives them, with one
    restriction per W: the facets restricted to W and re-maximalized, cones
    skipped, and every other W sent to the homology engine."""
    counts = {}
    for w in range(1 << size):
        dims = _restriction_dims(masks, adj, w, DEFAULT_FACE_CAP)
        while dims and not dims[-1]:
            dims = dims[:-1]
        key = dims, w.bit_count()
        counts[key] = counts.get(key, 0) + 1
    return counts


def assert_graph_and_complex_scans_match_reference(g):
    masks = masks_of(clique_complex(g))
    adj = list(g._masks)
    assert _skeleton(masks, g.n) == adj
    assert _induced_links(masks, adj) == (1 << g.n) - 1
    want = scan_by_restriction(masks, adj, g.n)
    assert _hochster_scan(None, adj, g.n, DEFAULT_FACE_CAP) == want
    assert _hochster_scan(masks, adj, g.n, DEFAULT_FACE_CAP) == want


def test_graph_and_complex_scans_match_restriction_reference(corpus300, bp12):
    # The raw scans of TWO_C4, TWO_C5, TWO_OCTAHEDRA, HUB_C4 and HUB_C5
    # reach the homology engine; the other graphs only meet the glue.  Each
    # graph is scanned as a graph and as its clique complex.
    graphs = [*corpus300[:60], *(Graph.cycle(k) for k in range(4, 9)), OCTAHEDRON]
    graphs += [TWO_C4, TWO_C5, TWO_OCTAHEDRA, HUB_C4, HUB_C5]
    graphs += [gnp(6 + s % 5, (0.3, 0.45, 0.6)[s % 3], s) for s in range(40)]
    graphs += [bp12, gnp(10, 0.45, 7), *(gnp(n, 0.45, 50 + n) for n in (9, 10, 11))]
    graphs += [cycle_with_leaves(7, range(7))]
    for g in graphs:
        assert_graph_and_complex_scans_match_reference(g)


def test_induced_links_of_non_flag_complexes():
    # RP^2: the link of each vertex is a 5-cycle, but the other five
    # vertices also span five triangles
    assert _induced_links(masks_of(RP2), _skeleton(masks_of(RP2), 6)) == 0
    # hollow triangle: the link of each vertex is two points, but its two
    # neighbours span an edge
    hollow = masks_of(SimplicialComplex(3, [{0, 1}, {1, 2}, {0, 2}]))
    assert _induced_links(hollow, _skeleton(hollow, 3)) == 0
    # an edge and a ghost vertex 2, whose link is void
    edge = masks_of(SimplicialComplex(3, [{0, 1}]))
    assert _induced_links(edge, _skeleton(edge, 3)) == 0b011


def nearly_flag(n, seed):
    """The clique complex of a connected G(n, 0.45) with its largest facet
    replaced by its boundary."""
    rng = random.Random(seed)
    g = gnp(n, 0.45, rng.getrandbits(32))
    while components(g)[0] > 1:
        g = gnp(n, 0.45, rng.getrandbits(32))
    facets = masks_of(clique_complex(g))
    top = max(facets, key=int.bit_count)
    facets.remove(top)
    facets += [top ^ 1 << v for v in _bits(top)]
    return SimplicialComplex(n, [_bits(m) for m in facets])


def test_nearly_flag_complexes_glue_where_links_are_induced(monkeypatch):
    # Exactly the vertices of the hollowed facet lose an induced link, so
    # nearly every W is glued: the engine runs 1, 1, 1 and 12 times, where
    # a scan that sends every W that is not a cone to the engine runs it
    # 410, 874, 1,539 and 3,764 times.  The smallest is also checked
    # against a restriction per W of the complex itself.
    calls = []

    def counting(by_dim, adj):
        calls.append(by_dim)
        return _homology_dims(by_dim, adj)

    complexes = [nearly_flag(n, 900 + n) for n in (9, 10, 11, 12)]
    tables = []
    for cx in complexes:
        masks, adj = list(cx._masks), _skeleton(cx._masks, cx.n)
        want = scan_by_restriction(masks, adj, cx.n)
        assert _hochster_scan(masks, adj, cx.n, DEFAULT_FACE_CAP) == want
        tables.append(_betti_entries(want))
    assert hochster_by_restriction(complexes[0]) == tables[0]
    monkeypatch.setattr(betti, "_homology_dims", counting)
    engine = []
    for cx, want in zip(complexes, tables):
        calls.clear()
        assert full_betti_hochster(cx).entries == want
        engine.append(len(calls))
    assert engine == [1, 1, 1, 12]


def _dense_boundary(faces, rows):
    index = {m: i for i, m in enumerate(rows)}
    mat = [[0] * len(faces) for _ in rows]
    for j, face in enumerate(faces):
        verts = [v for v in range(face.bit_length()) if face >> v & 1]
        for pos, v in enumerate(verts):
            mat[index[face ^ (1 << v)]][j] = (-1) ** pos
    return mat


# A pure 2-complex on 9 vertices whose triangle-to-edge reduction meets a
# pivot of -2, the one input here that reaches the non-unit pivot branch
# of _boundary_rank.
NON_UNIT_PIVOT = SimplicialComplex(9, [
    (0, 1, 4), (0, 1, 5), (0, 1, 7), (0, 2, 5), (0, 2, 8), (0, 3, 7), (0, 3, 8),
    (0, 4, 6), (1, 2, 3), (1, 2, 4), (1, 3, 7), (1, 4, 5), (1, 4, 6), (1, 4, 7),
    (1, 4, 8), (1, 5, 7), (1, 6, 7), (2, 3, 5), (2, 4, 8), (2, 5, 7), (3, 4, 5),
    (3, 4, 8), (3, 5, 7), (3, 6, 7), (3, 7, 8), (4, 5, 7), (4, 6, 7), (5, 6, 7),
])


def test_boundary_ranks_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2012)
    # RP^2, its cone and its suspension meet only unit pivots
    cone = [f | {6} for f in RP2.facets]
    suspension = [*cone, *(f | {7} for f in RP2.facets)]
    complexes = [RP2, SimplicialComplex(7, cone), SimplicialComplex(8, suspension), NON_UNIT_PIVOT]
    for _ in range(40):
        n = rng.randint(3, 7)
        facets = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 7))]
        complexes.append(SimplicialComplex(n, facets))
    for cx in complexes:
        masks = masks_of(cx)
        by_dim = _faces_by_dim(_facet_faces(masks), DEFAULT_FACE_CAP)
        ranks = [1] + [
            sympy.Matrix(_dense_boundary(by_dim[k], by_dim[k - 1])).rank()
            for k in range(1, len(by_dim))
        ] + [0]
        for k in range(2, len(by_dim)):
            assert _boundary_rank(by_dim[k], by_dim[k - 1]) == ranks[k]
        dims = (0, *(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(len(by_dim))))
        assert _homology_dims(by_dim, _skeleton(masks, cx.n)) == dims


def test_pinned_tables():
    # values of the dense-elimination engine this one replaced
    assert reduced_homology_ranks(RP2) == (0, 0, 0, 0)
    assert full_betti_hochster(RP2).entries == {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    assert table_of(OCTAHEDRON).entries == {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}


@st.composite
def relabeled_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    perm = draw(st.permutations(range(n)))
    return Graph(n, edges), Graph(n, [(perm[u], perm[v]) for u, v in edges])


@given(relabeled_graphs())
@settings(max_examples=60, deadline=None)
def test_hochster_table_invariant_under_relabeling(pair):
    g, h = pair
    assert table_of(g).entries == table_of(h).entries


@given(relabeled_graphs(max_n=10))
@settings(max_examples=80, deadline=None)
def test_strand_invariant_under_relabeling(pair):
    g, h = pair
    assert linear_strand_hochster(g) == linear_strand_hochster(h)


def test_edgeless_graphs_take_the_isolated_point_path(monkeypatch):
    # k isolated points: H~_0 of rank |W| - 1 on every W, nothing else, and
    # no restriction ever reaches the clique walk or the homology engine
    def refuse(*args):
        raise AssertionError("edgeless input reached the core route")

    monkeypatch.setattr(betti, "clique_walk", refuse)
    monkeypatch.setattr(betti, "_homology_dims", refuse)
    for k in range(11):
        want = {(0, 0): 1}
        want.update({(j - 1, j): comb(k, j) * (j - 1) for j in range(2, k + 1)})
        assert table_of(Graph(k)).entries == want, k


def with_isolated(g, extra):
    """``g`` plus ``extra`` isolated vertices, spread among its labels."""
    n = g.n + extra
    rng = random.Random(n * 31 + extra)
    new = rng.sample(range(n), g.n)
    return Graph(n, [(new[u], new[v]) for u, v in g.edges()])


def test_isolated_vertices_graph_and_complex_scans_match_reference():
    for s in range(24):
        g = with_isolated(gnp(5 + s % 5, (0.3, 0.45, 0.6)[s % 3], 300 + s), 1 + s % 3)
        assert_graph_and_complex_scans_match_reference(g)


def test_chordal_table_independent_of_labelling():
    # The scan relabels by elimination order; the raw scans below get the
    # reversed and shuffled labels as they are, so their lowest vertices
    # are often not simplicial and the glue memo is read.
    for seed in range(12):
        g = random_chordal(7 + seed % 5, 2 + seed % 3, seed)
        n = g.n
        rng = random.Random(seed)
        shuffled = rng.sample(range(n), n)
        want = table_of(g, vertex_cap=12).entries
        for perm in (list(range(n - 1, -1, -1)), shuffled):
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert table_of(h, vertex_cap=12).entries == want
            masks = masks_of(clique_complex(h))
            raw = _hochster_scan(masks, list(h._masks), n, DEFAULT_FACE_CAP)
            assert _betti_entries(raw) == want
