"""Shared fixtures and brute-force oracles.

The oracles here deliberately use different mechanisms than the library
(plain subset enumeration, union-find, greedy simplicial elimination) so
that agreement is evidence, not tautology.
"""

import random
import sys
from itertools import combinations

import pytest

from cliquevec import Graph, build_random_corpus, chordal_with_connectivities, random_chordal


# -- fixtures ------------------------------------------------------------


@pytest.fixture(scope="session")
def bp12() -> Graph:
    """Clique K4 on 0..3, plus 4~{0}, 5~{0,1}, 6~{2,3}."""
    return chordal_with_connectivities(1, 2)


@pytest.fixture(scope="session")
def sun3() -> Graph:
    """The 3-sun: central triangle {3,4,5}, outer 0~{3,4}, 1~{4,5}, 2~{3,5}."""
    return Graph(6, [(3, 4), (4, 5), (3, 5), (0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5)])


@pytest.fixture(scope="session")
def corpus_small() -> list[Graph]:
    """120 random chordal non-complete graphs, n <= 10 (module tests)."""
    return build_random_corpus(max_n=10, trials=120, seed=1105)


@pytest.fixture(scope="session")
def corpus500() -> list[Graph]:
    """The 500-instance corpus used by the acceptance gate, n <= 12."""
    return build_random_corpus(max_n=12, trials=500, seed=20240701)


@pytest.fixture(scope="session")
def corpus300() -> list[Graph]:
    """300 random chordal graphs with n <= 9 for the Betti-route tests."""
    return build_random_corpus(max_n=9, trials=300, seed=424243)


# -- call counting -------------------------------------------------------


def count_calls(monkeypatch, module, name):
    """Wrap every binding of ``module.name`` in the loaded cliquevec modules
    with a call counter; returns the one-element list holding the count."""
    original = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cliquevec" or mod_name.startswith("cliquevec."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


# -- oracles -------------------------------------------------------------


def oracle_graphs(seed: int, count: int, max_n: int = 12) -> list[Graph]:
    """Seeded G(n, p) graphs and ``random_chordal`` graphs, alternating,
    with at most ``max_n`` vertices."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(1, max_n)
        if k % 2:
            out.append(random_chordal(n, rng.randint(1, min(4, n)), rng.getrandbits(32)))
        else:
            p = rng.choice((0.2, 0.4, 0.6, 0.8))
            out.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out


def to_networkx(nx, g: Graph):
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return ng


def brute_clique_counts(g: Graph) -> tuple[int, ...]:
    """Clique vector by checking every vertex subset."""
    counts = [0] * (g.n + 1)
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                counts[size] += 1
    d = max((i for i, c in enumerate(counts) if c), default=0)
    return tuple(counts[1 : d + 1])


def brute_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    cliques = [
        frozenset(sub)
        for size in range(1, g.n + 1)
        for sub in combinations(range(g.n), size)
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2))
    ]
    return {c for c in cliques if not any(c < o for o in cliques)}


def brute_is_chordal(g: Graph) -> bool:
    """Greedy simplicial elimination; a vertex on an induced long cycle is
    never simplicial, so getting stuck is equivalent to non-chordality."""
    alive = set(range(g.n))
    while alive:
        victim = None
        for v in alive:
            nb = g.neighbors(v) & alive
            if all(g.has_edge(a, b) for a, b in combinations(sorted(nb), 2)):
                victim = v
                break
        if victim is None:
            return False
        alive.remove(victim)
    return True


def dsu_component_count(g: Graph, removed: set[int]) -> int:
    """Components of g minus `removed` by union-find (not BFS)."""
    alive = [v for v in range(g.n) if v not in removed]
    parent = {v: v for v in alive}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges():
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return len({find(v) for v in alive})


def brute_vertex_connectivity(g: Graph) -> int:
    if g.n == 1:
        return 0
    if dsu_component_count(g, set()) > 1:
        return 0
    for k in range(1, g.n - 1):
        for sub in combinations(range(g.n), k):
            if dsu_component_count(g, set(sub)) > 1:
                return k
    return g.n - 1


def _matches_pattern(g: Graph, verts: tuple[int, ...], pattern_edges: set) -> bool:
    from itertools import permutations

    k = len(verts)
    for perm in permutations(range(k)):
        ok = True
        for a in range(k):
            for b in range(a + 1, k):
                want = (min(perm[a], perm[b]), max(perm[a], perm[b])) in pattern_edges
                if g.has_edge(verts[a], verts[b]) != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def has_forbidden_threshold_subgraph(g: Graph) -> bool:
    """Induced C4, 2K2 or P4 (the threshold obstructions), by brute force."""
    patterns = [
        {(0, 1), (1, 2), (2, 3), (0, 3)},  # C4
        {(0, 1), (2, 3)},  # 2K2
        {(0, 1), (1, 2), (2, 3)},  # P4
    ]
    for verts in combinations(range(g.n), 4):
        for pat in patterns:
            if _matches_pattern(g, verts, pat):
                return True
    return False
