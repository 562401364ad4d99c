import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquevec import (
    b_from_c,
    c_from_b,
    clique_complex,
    clique_vector,
    f_from_h,
    h_from_f,
    vertex_connectivity,
)


def expand_in_shifted_basis(b):
    """Oracle for the defining identity: expand sum b_i (x+1)^(i-1) into
    plain coefficients using additive Pascal rows only."""
    d = len(b)
    coeffs = [0] * d
    row = [1]  # coefficients of (x+1)^0
    for i in range(1, d + 1):
        for j, r in enumerate(row):
            coeffs[j] += b[i - 1] * r
        nxt = [1] + [row[j] + row[j + 1] for j in range(len(row) - 1)] + [1]
        row = nxt
    return tuple(coeffs)


def test_b_from_c_examples():
    assert b_from_c((6, 7, 2)) == (1, 3, 2)
    assert b_from_c((3, 3, 1)) == (1, 1, 1)
    assert b_from_c((7, 11, 6, 1)) == (1, 2, 3, 1)


def test_c_from_b_examples():
    from math import comb

    assert c_from_b((1, 3, 2)) == (6, 7, 2)
    assert c_from_b((1, 2, 3, 1)) == (7, 11, 6, 1)
    for d in range(1, 8):
        assert c_from_b((1,) * d) == tuple(comb(d, i) for i in range(1, d + 1))


def test_h_from_f_examples():
    # full simplex on d vertices
    from math import comb

    for d in range(1, 7):
        f = tuple(comb(d, j) for j in range(d + 1))
        assert h_from_f(f, d) == (1,) + (0,) * d
    assert h_from_f((1, 3, 2), 2) == (1, 1, 0)
    assert f_from_h((1, 1, 0), 2) == (1, 3, 2)


def test_vector_length_validation():
    with pytest.raises(ValueError):
        h_from_f((1, 2), 2)
    with pytest.raises(ValueError):
        b_from_c(())


vectors = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=20
)


@given(vectors)
@settings(max_examples=300)
def test_bc_roundtrip(v):
    assert list(c_from_b(b_from_c(v))) == v
    assert list(b_from_c(c_from_b(v))) == v


@given(vectors)
@settings(max_examples=300)
def test_fh_roundtrip(v):
    d = len(v) - 1
    assert list(f_from_h(h_from_f(v, d), d)) == v
    assert list(h_from_f(f_from_h(v, d), d)) == v


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8))
@settings(max_examples=300)
def test_defining_identity(c):
    assert expand_in_shifted_basis(b_from_c(c)) == tuple(c)


def test_defining_identity_symbolic_spot_check():
    import random

    sympy = pytest.importorskip("sympy")

    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 6)
        c = [rng.randint(0, 40) for _ in range(d)]
        b = b_from_c(c)
        lhs = sympy.expand(sum(b[i] * (x + 1) ** i for i in range(d)))
        rhs = sympy.expand(sum(c[i] * x**i for i in range(d)))
        assert sympy.simplify(lhs - rhs) == 0


def test_f_vector_of_clique_complex_is_shifted_c(corpus_small):
    for g in corpus_small:
        assert clique_complex(g).f_vector() == (1, *clique_vector(g))


def test_low_entries_encode_connectivity(corpus_small):
    # b_i = 1 for i <= kappa and b_(kappa+1) != 1, on connected
    # non-complete chordal graphs.  Random threshold words ending in S top
    # up the connected pool.
    import random

    from cliquevec import graph_from_word, random_word

    rng = random.Random(8)
    pool = list(corpus_small)
    while len(pool) < 200:
        w = random_word(rng.randint(3, 12), rng.getrandbits(32)) + "S"
        pool.append(graph_from_word(w))
    seen = 0
    for g in pool:
        if g.n < 2 or g.is_complete() or vertex_connectivity(g) == 0:
            continue
        kappa = vertex_connectivity(g)
        b = b_from_c(clique_vector(g))
        assert all(x == 1 for x in b[:kappa])
        if kappa < len(b):
            assert b[kappa] != 1
        seen += 1
    assert seen >= 80


def test_positivity_on_proven_ranges(corpus_small):
    """Positivity of every b_i is only proven for i <= kappa+1 and
    i > kappa_tilde; instances violating it elsewhere would be findings,
    and none are known -- record rather than assert in the middle range."""
    from cliquevec import kappa_tilde

    findings = []
    for g in corpus_small:
        if g.n < 2 or g.is_complete():
            continue
        b = b_from_c(clique_vector(g))
        kappa = vertex_connectivity(g)
        kt = kappa_tilde(g)
        for i in range(1, len(b) + 1):
            if i <= kappa + 1 or i > kt:
                assert b[i - 1] >= 1
            elif b[i - 1] <= 0:
                findings.append((g.edges(), i, b[i - 1]))
    assert not findings, f"nonpositive middle b-entries found: {findings[:3]}"
