import random
from itertools import combinations, permutations, product

import pytest

from cliquevec import (
    Graph,
    GraphFormatError,
    SimplicialComplex,
    clique_complex,
    clique_vector,
    format_complex,
    graph_from_word,
    is_matroid,
    is_pure,
    is_shifted,
    maximal_cliques,
    parse_complex,
    recognize_threshold,
    restrict,
    shifted_vertex_order,
)
from cliquevec.complexes import CapExceeded


def facets(cx):
    return {frozenset(f) for f in cx.facets}


def test_complex_construction_maximalizes():
    cx = SimplicialComplex(4, [{0, 1}, {1}, {0, 1, 2}, {3}])
    assert facets(cx) == {frozenset({0, 1, 2}), frozenset({3})}
    assert cx.dim == 2
    with pytest.raises(ValueError):
        SimplicialComplex(2, [{0, 5}])

    rng = random.Random(30)
    for _ in range(200):
        n = rng.randint(1, 8)
        family = [
            frozenset(rng.sample(range(n), rng.randint(0, n)))
            for _ in range(rng.randint(0, 8))
        ]
        # duplicates and nested copies of earlier members
        family += [f for f in family if rng.random() < 0.3]
        family += [
            frozenset(rng.sample(sorted(f), rng.randint(0, len(f))))
            for f in family
            if rng.random() < 0.5
        ]
        rng.shuffle(family)
        brute = {s for s in family if s and not any(s < t for t in family)}
        assert list(SimplicialComplex(n, family).facets) == sorted(brute, key=sorted)


def test_facet_views_match_frozenset_references(corpus_small):
    """``facets``, ``repr``, ``format_complex``, ``dim``, ``==`` and
    ``hash`` of the mask-stored complex agree with a facet list kept as
    frozensets and sorted by their sorted members."""
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(0, 9)
        family = [
            [rng.randrange(n) for _ in range(rng.randint(0, 5))] if n else []
            for _ in range(rng.randint(0, 8))
        ]
        sets = [frozenset(f) for f in family]
        ref = sorted({s for s in sets if s and not any(s < t for t in sets)}, key=sorted)
        cx = SimplicialComplex(n, family)
        assert cx.facets == tuple(ref)
        assert repr(cx) == f"SimplicialComplex(n={n}, facets={[sorted(f) for f in ref]})"
        assert format_complex(cx) == "".join(
            f"{line}\n" for line in [str(n), *(" ".join(map(str, sorted(f))) for f in ref)]
        )
        assert cx.dim == max(map(len, ref), default=0) - 1
        again = SimplicialComplex(n, [f[::-1] for f in reversed(family)])
        assert again == cx and hash(again) == hash(cx)
        assert SimplicialComplex(n + 1, family) != cx
    for g in corpus_small[:40]:
        assert clique_complex(g).facets == tuple(maximal_cliques(g))
        assert clique_complex(g) == SimplicialComplex(g.n, maximal_cliques(g))


def test_clique_complex_examples(bp12):
    assert facets(clique_complex(Graph.complete(3))) == {frozenset({0, 1, 2})}
    assert facets(clique_complex(Graph.path(3))) == {
        frozenset({0, 1}),
        frozenset({1, 2}),
    }
    assert facets(clique_complex(bp12)) == set(maximal_cliques(bp12))


def test_f_vector_matches_clique_vector(bp12):
    assert clique_complex(bp12).f_vector() == (1, 7, 11, 6, 1)


def test_restrict_examples(bp12):
    cx = clique_complex(Graph.path(3))
    assert restrict(cx, set()).facets == ()
    assert facets(restrict(cx, {0, 2})) == {frozenset({0}), frozenset({2})}
    r = restrict(clique_complex(bp12), {0, 1, 5, 6})
    assert facets(r) == {frozenset({0, 1, 5}), frozenset({6})}


def test_is_shifted_examples():
    simplex = SimplicialComplex(4, [range(4)])
    for order in permutations(range(4)):
        assert is_shifted(simplex, order)
    p4 = clique_complex(Graph.path(4))
    assert not any(is_shifted(p4, order) for order in permutations(range(4)))


def test_is_shifted_needs_permutation():
    with pytest.raises(ValueError):
        is_shifted(SimplicialComplex(3, [{0, 1}]), (0, 1))
    for bad in ((0, 0, 1), (0, 1, 3), (0, 1, 2, 3)):
        with pytest.raises(ValueError):
            is_shifted(SimplicialComplex(3, [{0, 1}]), bad)


def frozenset_is_shifted(cx, order) -> bool:
    """The definition on frozenset faces: every swap of a member for any
    higher-ranked non-member gives a face."""
    rank = {v: r for r, v in enumerate(order)}
    faces = cx.faces()
    faces.add(frozenset())
    return all(
        (face - {i}) | {j} in faces
        for face in faces
        for i in face
        for j in range(cx.n)
        if j not in face and rank[j] > rank[i]
    )


def shifted_closure(n, generators):
    """The smallest complex on ranks 0..n-1 holding ``generators`` that is
    shifted under the identity order: close under subsets and under
    swapping a member for any higher non-member."""
    faces = set()
    todo = [frozenset(f) for f in generators]
    while todo:
        f = todo.pop()
        if f in faces:
            continue
        faces.add(f)
        todo += [f - {i} for i in f]
        todo += [(f - {i}) | {j} for i in f for j in range(i + 1, n) if j not in f]
    return [f for f in faces if f]


def test_is_shifted_matches_frozenset_definition():
    rng = random.Random(1717)
    verdicts = []
    for _ in range(300):
        n = rng.randint(1, 7)
        generators = [
            {v for v in range(n) if rng.random() < 0.4} for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.5:
            # A shifted complex, relabeled so that the order is not the identity.
            labels = list(range(n))
            rng.shuffle(labels)
            faces = shifted_closure(n, generators)
            cx = SimplicialComplex(n, [{labels[r] for r in f} for f in faces])
            order = tuple(labels)
        else:
            cx = SimplicialComplex(n, generators)
            order = tuple(rng.sample(range(n), n))
        expected = frozenset_is_shifted(cx, order)
        assert is_shifted(cx, order) == expected
        verdicts.append(expected)
    assert 50 < sum(verdicts) < 250


def test_is_shifted_on_threshold_clique_complexes():
    rng = random.Random(1718)
    for _ in range(60):
        word = "S" + "".join(rng.choice("SD") for _ in range(rng.randint(0, 8)))
        g = graph_from_word(word)
        cx = clique_complex(g)
        word_order = shifted_vertex_order(word)
        assert is_shifted(cx, word_order)
        assert frozenset_is_shifted(cx, word_order)
        other = tuple(rng.sample(range(g.n), g.n))
        assert is_shifted(cx, other) == frozenset_is_shifted(cx, other)


def test_pure_matroid_examples():
    sd = clique_complex(graph_from_word("SDDSS"))
    assert is_pure(sd) and is_matroid(sd)
    mixed = clique_complex(graph_from_word("SDSDS"))
    assert not is_pure(mixed) and not is_matroid(mixed)
    kn = clique_complex(Graph.complete(5))
    assert is_pure(kn) and is_matroid(kn)
    # pure but not matroid: 2K2 (restricting to three vertices goes impure)
    two = clique_complex(Graph(4, [(0, 1), (2, 3)]))
    assert is_pure(two) and not is_matroid(two)
    p4 = clique_complex(Graph.path(4))
    assert is_pure(p4) and not is_matroid(p4)


def test_sds_family_words_are_matroids():
    for a in range(0, 4):
        for b in range(0, 4):
            w = "S" + "D" * a + "S" * b
            assert is_matroid(clique_complex(graph_from_word(w))), w


def test_is_matroid_matches_augmentation_axiom():
    # Independence-complex axiom: for faces A, B with |A| < |B| some
    # x in B - A has A + x a face.
    def augmentation_holds(cx):
        faces = cx.faces() | {frozenset()}
        return all(
            any(cx.is_face(a | {x}) for x in b - a)
            for a in faces
            for b in faces
            if len(a) < len(b)
        )

    rng = random.Random(60)
    seen = set()
    for trial in range(60):
        n = rng.randint(3, 7)
        kind = trial % 3
        if kind == 0:  # arbitrary small facets
            family = [
                rng.sample(range(n), rng.randint(1, 3))
                for _ in range(rng.randint(2, 5))
            ]
        elif kind == 1:  # uniform matroid U(k, m), possibly with ghosts
            ground = rng.sample(range(n), rng.randint(1, n))
            family = list(combinations(ground, rng.randint(1, len(ground))))
        else:  # transversals of disjoint blocks (a partition matroid),
            # sometimes with one extra facet that may break the axiom
            verts = rng.sample(range(n), rng.randint(1, n))
            cuts = sorted(rng.sample(range(1, len(verts)), rng.randint(0, len(verts) - 1)))
            blocks = [verts[i:j] for i, j in zip([0, *cuts], [*cuts, len(verts)])]
            family = list(product(*blocks))
            if rng.random() < 0.5:
                family.append(rng.sample(range(n), rng.randint(1, 3)))
        cx = SimplicialComplex(n, family)
        expected = augmentation_holds(cx)
        assert is_matroid(cx) == expected, cx
        seen.add(expected)
    assert seen == {True, False}


def test_matroid_chordal_instances_are_threshold(corpus_small):
    for g in corpus_small[:60]:
        cx = clique_complex(g)
        if is_matroid(cx):
            assert recognize_threshold(g) is not None


def test_non_chordal_matroid_exists():
    # C4 = K_{2,2} has a matroid clique complex but is not threshold;
    # chordality is essential in the implication above.
    c4 = clique_complex(Graph.cycle(4))
    assert is_matroid(c4)
    assert recognize_threshold(Graph.cycle(4)) is None


def test_is_matroid_cap():
    assert is_matroid(SimplicialComplex(16, [range(16)]))
    with pytest.raises(CapExceeded, match="^matroid check capped at 16 vertices$"):
        is_matroid(SimplicialComplex(17, [range(17)]))


def test_complex_text_roundtrip(bp12):
    cx = clique_complex(bp12)
    assert parse_complex(format_complex(cx)) == cx
    with pytest.raises(GraphFormatError):
        parse_complex("")
    with pytest.raises(GraphFormatError):
        parse_complex("3\n0 x\n")
    with pytest.raises(GraphFormatError):
        parse_complex("2\n0 5\n")


def test_pure_chordal_has_constant_b_tail(corpus_small):
    from cliquevec import b_from_c, kappa_tilde

    instances = [g for g in corpus_small if is_pure(clique_complex(g))]
    instances += [
        graph_from_word("SDDSS"),
        graph_from_word("SDDDSS"),
        Graph(4, [(0, 1), (2, 3)]),  # 2K2
        Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),  # 2K3
    ]
    for g in instances:
        if g.is_complete():
            continue
        b = b_from_c(clique_vector(g))
        kt = kappa_tilde(g)
        tail = b[kt:]
        assert len(set(tail)) <= 1, (g.edges(), b, kt)
