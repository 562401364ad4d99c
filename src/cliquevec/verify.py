"""Executable claim suite: every structural statement the b-vector makes
about a chordal graph, checked exactly on one instance at a time.

For a chordal non-complete graph with connectivity kappa, clique number d
and maximum maximal-clique intersection ktilde, the claims are:

* ``b_eq_cut_low``   : b_i = cut_sum(i-1) + 1 for i <= kappa + 1
* ``b_lt_cut_high``  : b_i < cut_sum(i-1) + 1 for kappa + 2 <= i <= d
* ``b_le_dom``       : b_i <= d_i for all i
* ``b_eq_dom_high``  : b_i = d_i for i > ktilde
* ``b_monotone_high``: b_i <= b_j for ktilde < j <= i
* ``betti_eq_low`` / ``betti_lt_high``: the same bounds phrased against the
  total Betti numbers of the Stanley-Reisner ring (b_i vs beta_{n-i} + 1),
  read off the closed h-vector formula rather than the cut sums
* shifting claims: the shifted graph is threshold, clique-vector- and
  connectivity-preserving, dominates no worse (d_i(T) <= d_i(G), equality
  past ktilde), and the clique bijection closes
* threshold-only closed forms and the strict cut-sum inequality
* pure/matroid tail claims for the clique complex

Complete and non-chordal inputs are skipped (the statements do not apply).
Failures are findings, reported with witnesses, never exceptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .betti import betti_from_hvector
from .cliques import clique_vector, dominating_numbers, kappa_tilde
from .complexes import clique_complex, is_matroid, is_pure, is_shifted
from .graphs import (
    Graph,
    cut_component_sum,
    is_chordal,
    random_chordal,
    vertex_connectivity,
)
from .shifting import ShiftVerificationError, alpha_shift, clique_bijection_check
from .threshold import (
    ProfileMismatch,
    recognize_threshold,
    shifted_vertex_order,
    threshold_labeling,
    threshold_profile,
)
from .vectors import b_from_c, h_from_f

__all__ = ["ClaimResult", "evaluate_graph", "random_instance", "build_random_corpus"]


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    status: str  # "pass" | "fail" | "skip"
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"claim": self.claim, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _claim(name: str, bad: dict | None) -> ClaimResult:
    """A claim with its first counterexample, or passing when there is none."""
    return ClaimResult(name, "pass" if bad is None else "fail", bad)


# Witness builders: the index i with the two values compared there.
def _vs_cut(b, cuts, i) -> dict:
    return {"i": i, "b_i": str(b[i - 1]), "cut_sum_plus_1": str(cuts[i - 1] + 1)}


def _vs_dom(b, d_values, i) -> dict:
    return {"i": i, "b_i": str(b[i - 1]), "d_i": str(d_values[i - 1])}


def _vs_beta(beta, n, i) -> dict:
    return {"i": i, "beta_n_minus_i": str(beta[n - i])}


def _dom_vs_dom(dom_t, d_values, i) -> dict:
    return {"i": i, "d_i_T": dom_t[i - 1], "d_i_G": d_values[i - 1]}


def _bounds_claims(b, cuts, d_values, kappa, ktilde, d) -> list[ClaimResult]:
    low, high = range(1, min(kappa + 1, d) + 1), range(kappa + 2, d + 1)
    every, tail = range(1, d + 1), range(ktilde + 1, d + 1)
    return [
        _claim(
            "b_eq_cut_low",
            next((_vs_cut(b, cuts, i) for i in low if b[i - 1] != cuts[i - 1] + 1), None),
        ),
        _claim(
            "b_lt_cut_high",
            next((_vs_cut(b, cuts, i) for i in high if not b[i - 1] < cuts[i - 1] + 1), None),
        ),
        _claim(
            "b_le_dom",
            next((_vs_dom(b, d_values, i) for i in every if not b[i - 1] <= d_values[i - 1]), None),
        ),
        _claim(
            "b_eq_dom_high",
            next((_vs_dom(b, d_values, i) for i in tail if b[i - 1] != d_values[i - 1]), None),
        ),
        _claim(
            "b_monotone_high",
            next(
                (
                    {"i": i, "j": j, "b_i": str(b[i - 1]), "b_j": str(b[j - 1])}
                    for j in tail
                    for i in range(j, d + 1)
                    if not b[i - 1] <= b[j - 1]
                ),
                None,
            ),
        ),
    ]


def _betti_claims(b, c, kappa, d, n) -> list[ClaimResult]:
    # beta_{n-i}(R/I) comes from the closed h-vector formula (the clique
    # ideal of a chordal graph has a 2-linear resolution), not from the cut
    # sums, so these claims are independent of b_eq_cut_low / b_lt_cut_high.
    beta = betti_from_hvector(h_from_f((1, *c), d), n, d)
    low, high = range(1, min(kappa + 1, d) + 1), range(kappa + 2, d + 1)
    return [
        _claim(
            "betti_eq_low",
            next((_vs_beta(beta, n, i) for i in low if b[i - 1] != beta[n - i] + 1), None),
        ),
        _claim(
            "betti_lt_high",
            next((_vs_beta(beta, n, i) for i in high if not b[i - 1] < beta[n - i] + 1), None),
        ),
    ]


def _shift_claims(g, d_values, kappa, ktilde) -> list[ClaimResult]:
    d = len(d_values)
    try:
        res = alpha_shift(g)
    except (ShiftVerificationError, ValueError, RuntimeError) as exc:
        return [_claim("shift_preserves_cliques", {"error": str(exc)})]

    t = res.shifted_graph
    kt = vertex_connectivity(t)
    dom_t = dominating_numbers(t)
    bijection = clique_bijection_check(g, res)
    labeled = threshold_labeling(t)
    vertex_order = tuple(labeled[1][p] for p in shifted_vertex_order(res.word))
    return [
        _claim("shift_preserves_cliques", None),
        _claim("shift_preserves_kappa", None if kt == kappa else {"kappa_g": kappa, "kappa_t": kt}),
        _claim(
            "shift_dom_le",
            next(
                (
                    _dom_vs_dom(dom_t, d_values, i)
                    for i in range(1, d + 1)
                    if not dom_t[i - 1] <= d_values[i - 1]
                ),
                None,
            ),
        ),
        _claim(
            "shift_dom_eq_high",
            next(
                (
                    _dom_vs_dom(dom_t, d_values, i)
                    for i in range(ktilde + 1, d + 1)
                    if dom_t[i - 1] != d_values[i - 1]
                ),
                None,
            ),
        ),
        _claim("shift_clique_bijection", bijection.failure),
        _claim(
            "shift_image_complex_shifted",
            None if is_shifted(clique_complex(t), vertex_order) else {"word": res.word},
        ),
    ]


def _threshold_claims(g, word, b, cuts, kappa, d) -> list[ClaimResult]:
    try:
        threshold_profile(word, verify=True)
        mismatch = None
    except ProfileMismatch as exc:
        mismatch = {"error": str(exc)}
    return [
        _claim("threshold_closed_forms", mismatch),
        _claim(
            "threshold_strict_cut_sums",
            next(
                (
                    {"i": i, "b_next": str(b[i]), "cut_sum": str(cuts[i])}
                    for i in range(kappa + 1, d)
                    if not b[i] < cuts[i]
                ),
                None,
            ),
        ),
    ]


def _complex_claims(g, b, ktilde, word) -> list[ClaimResult]:
    cx = clique_complex(g)
    claims = []
    if is_pure(cx):
        tail = b[ktilde:]
        bad = None if len(set(tail)) <= 1 else {"tail": [str(v) for v in tail]}
        claims.append(_claim("pure_tail_constant", bad))
    if g.n <= 14:
        matroid = is_matroid(cx)
        if matroid:
            claims.append(_claim("matroid_implies_threshold", {"n": g.n} if word is None else None))
        # Isolated-block-then-dominator-block words are exactly the
        # matroid complexes among threshold graphs.
        if word is not None and _is_sds_form(word):
            claims.append(_claim("sds_word_is_matroid", None if matroid else {"word": word}))
    return claims


def _is_sds_form(word: str) -> bool:
    """True for words of shape S D^a S^b (a, b >= 0)."""
    rest = word[1:]
    i = 0
    while i < len(rest) and rest[i] == "D":
        i += 1
    return all(c == "S" for c in rest[i:])


def evaluate_graph(g: Graph, instance_id: str = "graph") -> dict:
    """Run the whole claim suite on one graph; returns a JSON-ready report.

    The claims call the public functions; each derived object (the PEO,
    the maximal cliques, the cliques by size) is computed once per graph,
    because those functions keep it on the graph (``once_per_graph``).
    """
    chordal = is_chordal(g)[0]
    report: dict = {
        "instance": instance_id,
        "n": g.n,
        "m": g.m,
        "chordal": chordal,
    }
    if not chordal or g.n == 0 or g.is_complete():
        reason = "complete graph" if chordal else "not chordal"
        report["claims"] = [ClaimResult("all", "skip", {"reason": reason}).to_dict()]
        report["failures"] = 0
        return report

    c = clique_vector(g)
    b = b_from_c(c)
    d = len(c)
    kappa = vertex_connectivity(g)
    ktilde = kappa_tilde(g)
    d_values = dominating_numbers(g)
    cuts = [cut_component_sum(g, k) for k in range(d)]
    word = recognize_threshold(g)

    report["stats"] = {
        "clique_number": d,
        "kappa": kappa,
        "kappa_tilde": ktilde,
        "c_vector": [str(v) for v in c],
        "b_vector": [str(v) for v in b],
        "d_i": [str(v) for v in d_values],
        "threshold_word": word,
    }

    claims = []
    claims += _bounds_claims(b, cuts, d_values, kappa, ktilde, d)
    claims += _betti_claims(b, c, kappa, d, g.n)
    if g.n >= 2:
        claims += _shift_claims(g, d_values, kappa, ktilde)
    if word is not None:
        claims += _threshold_claims(g, word, b, cuts, kappa, d)
    claims += _complex_claims(g, b, ktilde, word)

    report["claims"] = [cl.to_dict() for cl in claims]
    report["failures"] = sum(1 for cl in claims if cl.status == "fail")
    return report


def random_instance(max_n: int, rng: random.Random) -> Graph:
    """One random chordal instance with size and density drawn from ``rng``."""
    n = rng.randint(2, max_n)
    width = rng.randint(1, min(4, n))
    return random_chordal(n, width, rng.getrandbits(48))


def build_random_corpus(max_n: int, trials: int, seed: int) -> list[Graph]:
    """Deterministic corpus of chordal non-complete graphs."""
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < trials:
        g = random_instance(max_n, rng)
        if not g.is_complete():
            out.append(g)
    return out
