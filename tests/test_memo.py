"""The per-graph memo (``graphs.once_per_graph``) is sound: a value kept on
a Graph does not depend on which public function asked for it first, a
caller cannot change it through a returned list, and every kept value is
immutable."""

import random
import sys
import threading
from itertools import combinations

from cliquevec import (
    Graph,
    alpha_shift,
    clique_vector,
    cliques_of_size,
    dominating_number,
    dominating_numbers,
    evaluate_graph,
    graph_from_word,
    is_chordal,
    kappa_tilde,
    maximal_cliques,
    recognize_threshold,
    threshold_labeling,
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def copy(g: Graph) -> Graph:
    """An equal Graph built separately, so it starts with an empty memo."""
    return Graph(g.n, g.edges())


def public_calls(g: Graph) -> list:
    """``(name, function, extra args)`` for the public clique-derived
    results of ``g``: every d_i one by one and all together, the shift and
    the clique vector, the cliques of each size and past the largest."""
    d = len(clique_vector(copy(g)))
    return [
        ("alpha_shift", alpha_shift, ()),
        ("clique_vector", clique_vector, ()),
        *((f"dominating_number_{i}", dominating_number, (i,)) for i in range(1, d + 1)),
        ("dominating_numbers", dominating_numbers, ()),
        *((f"cliques_of_size_{k}", cliques_of_size, (k,)) for k in range(1, d + 2)),
        ("maximal_cliques", maximal_cliques, ()),
        ("kappa_tilde", kappa_tilde, ()),
        ("is_chordal", is_chordal, ()),
        ("recognize_threshold", recognize_threshold, ()),
        ("threshold_labeling", threshold_labeling, ()),
    ]


def non_chordal_gnp(seed: int, count: int) -> list[Graph]:
    """Seeded non-chordal G(n, 0.45) graphs with n <= 10."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 10)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.45])
        if not is_chordal(g)[0]:
            out.append(g)
    return out


def test_results_do_not_depend_on_call_order(corpus_small):
    for g in [*corpus_small, *non_chordal_gnp(seed=4545, count=40)]:
        calls = public_calls(g)
        forward, backward = copy(g), copy(g)
        first = {name: outcome(fn, forward, *args) for name, fn, args in calls}
        second = {name: outcome(fn, backward, *args) for name, fn, args in reversed(calls)}
        # each call alone, on a graph that holds nothing from another call
        alone = {name: outcome(fn, copy(g), *args) for name, fn, args in calls}
        assert first == second == alone, g.edges()


def test_racing_threads_see_the_lone_call_values(corpus_small):
    """Threads that race on one memo each get what a lone call computes: a
    race only computes a value twice."""
    graphs = corpus_small[:20]
    expected = [
        {name: outcome(fn, copy(g), *args) for name, fn, args in public_calls(g)}
        for g in graphs
    ]
    shared = [copy(g) for g in graphs]
    results: list[list] = [[] for _ in range(6)]

    def work(out):
        for g in shared:
            out.append({name: outcome(fn, g, *args) for name, fn, args in public_calls(g)})

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert all(out == expected for out in results)


def test_returned_lists_are_the_callers_own(bp12):
    g = copy(bp12)
    cliques = maximal_cliques(g)
    expected = list(cliques)
    cliques.append(frozenset({99}))
    cliques[0] = frozenset()
    assert maximal_cliques(g) == expected
    pairs = cliques_of_size(g, 2)
    expected = list(pairs)
    pairs.clear()
    assert cliques_of_size(g, 2) == expected
    assert len(expected) == 11


def test_cliques_of_size_past_the_clique_number():
    g = Graph.path(4)
    assert cliques_of_size(g, 2) == [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
    assert cliques_of_size(g, 3) == []
    assert cliques_of_size(g, 9) == []
    assert cliques_of_size(Graph(0), 1) == []
    assert cliques_of_size(Graph(0), 3) == []


def test_single_size_callers_walk_only_to_their_size():
    # K16 has 65,535 cliques; the 2-cliques alone come from a walk that
    # stops at size 2, and no list of every clique is kept on the graph
    from cliquevec.cliques import _cliques_by_size

    g = Graph.complete(16)
    assert len(cliques_of_size(g, 2)) == 120
    assert dominating_number(g, 2) == (1, [frozenset({0, 1})])
    assert _cliques_by_size.__wrapped__ not in g._memo
    p4 = Graph.path(4)
    assert dominating_numbers(p4) == (2, 3)
    assert _cliques_by_size.__wrapped__ in p4._memo


def test_labelling_reuses_the_recognition_peel():
    from cliquevec.threshold import _peel

    g = copy(graph_from_word("SDSDDS"))
    assert recognize_threshold(g) == "SDSDDS"
    kept = g._memo[_peel.__wrapped__]
    assert threshold_labeling(g) is kept


def test_kept_values_are_immutable(corpus_small):
    for g in corpus_small[:30]:
        evaluate_graph(g)
        assert len(g._memo) >= 4
        for value in g._memo.values():
            hash(value)  # tuples of ints and the frozen Peo only
