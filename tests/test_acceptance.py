"""Acceptance suite: ten exact, desk-scale criteria with pinned budgets.

Each test prints one PASS line (run with ``pytest -s`` to see them); any
assertion failure is the corresponding FAIL.  Shared corpora are session
fixtures, so the suite computes each brute-force table once.
"""

import random
import re
import time
from itertools import combinations

import pytest

from cliquevec import (
    Graph,
    alpha_shift,
    b_from_c,
    betti_from_bvector,
    betti_from_hvector,
    bvector_from_word,
    c_from_b,
    chordal_with_connectivities,
    clique_bijection_check,
    clique_complex,
    clique_vector,
    evaluate_graph,
    f_from_h,
    full_betti_hochster,
    graph_from_word,
    h_from_f,
    homological_profile,
    is_matroid,
    kappa_tilde,
    linear_strand_hochster,
    random_chordal,
    recognize_threshold,
    threshold_profile,
    vertex_connectivity,
)
from cliquevec.cli import main as cli_main

from test_vectors import expand_in_shifted_basis


def report(number, elapsed, budget, detail):
    print(f"\nACCEPTANCE {number}: PASS in {elapsed:.2f}s (budget {budget}s) -- {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


@pytest.fixture(scope="session")
def hochster_tables(corpus300):
    return [full_betti_hochster(clique_complex(g)) for g in corpus300]


def test_criterion_01_figure_word():
    # warm up imports and caches, then time the actual computation
    bvector_from_word("SDSDDS")
    b_from_c(clique_vector(graph_from_word("SDSDDS")))
    t0 = time.perf_counter()
    assert bvector_from_word("SDSDDS") == (1, 3, 2)
    assert b_from_c(clique_vector(graph_from_word("SDSDDS"))) == (1, 3, 2)
    elapsed = time.perf_counter() - t0
    report(1, elapsed, 0.001, "word SDSDDS gives b = (1, 3, 2) along both routes")


def test_criterion_02_roundtrip_exactness():
    rng = random.Random(321)
    t0 = time.perf_counter()
    for _ in range(5000):
        v = [rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 20))]
        assert list(c_from_b(b_from_c(v))) == v
        assert list(b_from_c(c_from_b(v))) == v
    for _ in range(5000):
        v = [rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 20))]
        d = len(v) - 1
        assert list(f_from_h(h_from_f(v, d), d)) == v
        assert list(h_from_f(f_from_h(v, d), d)) == v
    elapsed = time.perf_counter() - t0
    report(2, elapsed, 5.0, "10,000 random vectors round-trip exactly (b<->c, f<->h)")


def test_criterion_03_defining_identity_oracle():
    rng = random.Random(7)
    t0 = time.perf_counter()
    for _ in range(1000):
        d = rng.randint(1, 8)
        c = [rng.randint(0, 50) for _ in range(d)]
        assert expand_in_shifted_basis(b_from_c(c)) == tuple(c)
    elapsed = time.perf_counter() - t0
    report(3, elapsed, 5.0, "shifted-basis expansion identity holds on 1,000 c-vectors")


def test_criterion_04_shifting(corpus500):
    t0 = time.perf_counter()
    for g in corpus500:
        res = alpha_shift(g)  # verifies threshold + clique vector internally
        assert vertex_connectivity(res.shifted_graph) == vertex_connectivity(g)
        assert clique_bijection_check(g, res).ok
    elapsed = time.perf_counter() - t0
    report(4, elapsed, 60.0, f"shift verified on {len(corpus500)} random chordal graphs")


def test_criterion_05_main_claims(corpus500):
    t0 = time.perf_counter()
    failures = 0
    for idx, g in enumerate(corpus500):
        failures += evaluate_graph(g, f"corpus-{idx}")["failures"]
    family = [
        chordal_with_connectivities(k, kt)
        for k in range(1, 4)
        for kt in range(k, 4)
    ]
    for g in family:
        failures += evaluate_graph(g, "family")["failures"]
    assert failures == 0

    bp = chordal_with_connectivities(1, 2)
    b = b_from_c(clique_vector(bp))
    assert b == (1, 2, 3, 1)
    from cliquevec import dominating_number

    d_values = tuple(dominating_number(bp, i)[0] for i in range(1, 5))
    assert d_values == (2, 3, 3, 1)
    assert vertex_connectivity(bp) == 1 and kappa_tilde(bp) == 2
    for i in (1, 2):  # claim (c) strict below kappa_tilde
        assert b[i - 1] < d_values[i - 1]
    for i in (3, 4):  # claim (d) tight above
        assert b[i - 1] == d_values[i - 1]

    # the headline gate: the CLI itself returns 0 on a 500-instance corpus
    assert cli_main(["verify", "--random", "12", "500", "0"]) == 0
    elapsed = time.perf_counter() - t0
    report(
        5,
        elapsed,
        120.0,
        f"all claims hold on {len(corpus500)} corpus graphs + the tight family grid",
    )


def test_criterion_06_betti_route_agreement(corpus300, hochster_tables):
    t0 = time.perf_counter()
    for g, table in zip(corpus300, hochster_tables):
        c = clique_vector(g)
        d = len(c)
        totals = table.totals()
        assert totals == betti_from_hvector(h_from_f((1, *c), d), g.n, d)
        assert totals == betti_from_bvector(b_from_c(c), g.n, d)
        strand = linear_strand_hochster(g)
        assert tuple(table.entry(i, i + 1) for i in range(1, g.n)) == strand
        assert totals[1:] == strand + (0,), "2-linear totals live on the strand"
    elapsed = time.perf_counter() - t0
    report(6, elapsed, 600.0, f"4 Betti routes agree on {len(corpus300)} graphs (n <= 9)")


def test_criterion_07_two_linearity_and_depth(corpus300, hochster_tables):
    t0 = time.perf_counter()
    for g, table in zip(corpus300, hochster_tables):
        profile = homological_profile(table)
        assert profile.is_two_linear
        assert profile.depth == vertex_connectivity(g) + 1
    for k in range(4, 9):
        table = full_betti_hochster(clique_complex(Graph.cycle(k)))
        assert not homological_profile(table).is_two_linear
    elapsed = time.perf_counter() - t0
    report(
        7,
        elapsed,
        120.0,
        "chordal tables are 2-linear with depth = kappa + 1; cycles C4..C8 are not",
    )


def test_criterion_08_betti_form_of_connectivity_bounds(corpus300, hochster_tables):
    t0 = time.perf_counter()
    for g, table in zip(corpus300, hochster_tables):
        if g.is_complete():
            continue
        b = b_from_c(clique_vector(g))
        kappa = vertex_connectivity(g)
        totals = table.totals()
        n, d = g.n, len(b)
        for i in range(1, min(kappa + 1, d) + 1):
            assert b[i - 1] == totals[n - i] + 1, (g.edges(), i)
        for i in range(kappa + 2, d + 1):
            assert b[i - 1] < totals[n - i] + 1, (g.edges(), i)
    elapsed = time.perf_counter() - t0
    report(8, elapsed, 120.0, "b_i vs beta_(n-i)(R/I) + 1: equality low, strict high")


def _word_brute_force_scan(g):
    """One pass over all vertex subsets: cut-component sums by size and the
    number of subsets whose removal leaves two components of size >= 2."""
    masks = g._masks
    n = g.n
    full = (1 << n) - 1
    sums = [0] * (n + 1)
    multi_big = 0
    for y in range(full + 1):
        avail = full & ~y
        count = 0
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
                    bbit = t & -t
                    t ^= bbit
                    nxt |= masks[bbit.bit_length() - 1]
                frontier = nxt & rest & ~comp
                comp |= frontier
            count += 1
            if comp.bit_count() >= 2:
                big += 1
            rest &= ~comp
        if count > 1:
            sums[y.bit_count()] += count - 1
        if big >= 2:
            multi_big += 1
    return sums, multi_big


def test_criterion_09_threshold_closed_forms():
    rng = random.Random(1414)
    t0 = time.perf_counter()
    words = 0
    while words < 1000:
        length = rng.randint(2, 14)
        w = "S" + "".join(rng.choice("SD") for _ in range(length - 1))
        if "D" not in w:
            continue
        words += 1
        profile = threshold_profile(w, verify=True)  # brute-checks every field
        g = graph_from_word(w)
        assert len(clique_vector(g)) == w.count("S")
        sums, multi_big = _word_brute_force_scan(g)
        assert multi_big == 0, f"{w}: some cut leaves two components of size >= 2"
        b, kappa, d = profile.b_vector, profile.kappa, profile.clique_number
        for i in range(kappa + 1, d):
            assert b[i] < sums[i], (w, i)
    elapsed = time.perf_counter() - t0
    report(9, elapsed, 300.0, "closed forms match brute force on 1,000 words (len <= 14)")


def _bk_sizes_pure(masks, active):
    """True iff all maximal cliques within `active` share one size."""
    sizes = set()

    def expand(r, p, x):
        if not p and not x:
            sizes.add(r.bit_count())
            return len(sizes) <= 1
        px = p | x
        pivot, best = -1, -1
        t = px
        while t:
            b = t & -t
            t ^= b
            v = b.bit_length() - 1
            s = (p & masks[v]).bit_count()
            if s > best:
                best, pivot = s, v
        cand = p & ~masks[pivot]
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            if not expand(r | b, p & masks[v] & active, x & masks[v] & active):
                return False
            p ^= b
            x |= b
        return True

    return expand(0, active, 0)


def _chordal_by_elimination(masks, n):
    active = (1 << n) - 1
    while active:
        progressed = False
        t = active
        while t:
            b = t & -t
            t ^= b
            v = b.bit_length() - 1
            nb = masks[v] & active
            ok = True
            u = nb
            while u:
                c = u & -u
                u ^= c
                if nb & ~masks[c.bit_length() - 1] & ~c:
                    ok = False
                    break
            if ok:
                active ^= b
                progressed = True
        if not progressed:
            return False
    return True


def _matroid_masks(masks, n):
    full = (1 << n) - 1
    return all(_bk_sizes_pure(masks, keep) for keep in range(full, -1, -1))


def test_criterion_10_matroid_and_pure_families(corpus_small):
    t0 = time.perf_counter()

    # (i) every S D^a S^b word yields a matroid clique complex
    for a in range(0, 6):
        for bb in range(0, 6):
            w = "S" + "D" * a + "S" * bb
            if len(w) > 10:
                continue
            assert is_matroid(clique_complex(graph_from_word(w))), w

    # (ii) exhaustively for n <= 7: chordal + matroid complex => threshold.
    # The family is closed under deleting the last vertex (induced subgraphs
    # of chordal graphs are chordal, restrictions of matroids are matroids),
    # so extending each member on n - 1 vertices by every neighbourhood of
    # vertex n - 1 lists every labelled member on n vertices exactly once.
    matroid_instances = 0
    members = [[]]  # adjacency masks of the members on n - 1 vertices
    for n in range(1, 8):
        extended = []
        for base in members:
            for nb in range(1 << (n - 1)):
                masks = [m | (nb >> u & 1) << (n - 1) for u, m in enumerate(base)] + [nb]
                if not _bk_sizes_pure(masks, (1 << n) - 1):
                    continue
                if not _chordal_by_elimination(masks, n):
                    continue
                if not _matroid_masks(masks, n):
                    continue
                extended.append(masks)
                g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if masks[u] >> v & 1])
                assert is_matroid(clique_complex(g))  # library agrees with scan
                word = recognize_threshold(g)
                assert word is not None, g.edges()
                # full classification: the word is one S, a D block, an S block
                assert re.fullmatch(r"SD*S*", word), (g.edges(), word)
        matroid_instances += len(extended)
        members = extended
    assert matroid_instances == 226

    # (iii) 200 random chordal graphs: matroid => threshold
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_chordal(n, rng.randint(1, min(4, n)), rng.getrandbits(32))
        if is_matroid(clique_complex(g)):
            assert recognize_threshold(g) is not None

    # (iv) pure chordal instances have a constant b-tail above kappa_tilde
    from cliquevec import is_pure

    pure_pool = [g for g in corpus_small if is_pure(clique_complex(g))]
    pure_pool += [graph_from_word("S" + "D" * a + "S" * bb) for a in range(4) for bb in range(4)]
    pure_pool += [Graph(4, [(0, 1), (2, 3)])]
    checked = 0
    for g in pure_pool:
        if g.n < 1 or g.is_complete():
            continue
        b = b_from_c(clique_vector(g))
        tail = b[kappa_tilde(g):]
        assert len(set(tail)) <= 1, (g.edges(), b)
        checked += 1
    assert checked >= 10

    elapsed = time.perf_counter() - t0
    report(
        10,
        elapsed,
        600.0,
        f"matroid/pure claims verified ({matroid_instances} exhaustive matroid instances)",
    )
