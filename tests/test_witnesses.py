"""Every failure witness the claim suite and the anchored-PEO check can
report, pinned value for value.

No corpus instance fails a claim, so the witnesses are reached with
fabricated vectors (the bounds, Betti and threshold claims) or by
replacing the module-level bindings of ``cliquevec.verify`` that the
shift and complex claims read.  Together the cases cover all 18 claim
names and the four anchored-PEO conditions plus the PEO property.
"""

import cliquevec.verify as verify
from cliquevec import (
    Graph,
    Peo,
    evaluate_graph,
    graph_from_word,
    special_peo,
    verify_special_peo,
)
from cliquevec.shifting import BijectionReport
from cliquevec.threshold import ProfileMismatch


def _dicts(claims):
    return [cl.to_dict() for cl in claims]


def _fail(name, witness):
    return {"claim": name, "status": "fail", "witness": witness}


def _passes(*names):
    return [{"claim": name, "status": "pass"} for name in names]


BOUNDS_AND_BETTI = (
    "b_eq_cut_low",
    "b_lt_cut_high",
    "b_le_dom",
    "b_eq_dom_high",
    "b_monotone_high",
    "betti_eq_low",
    "betti_lt_high",
)


def test_bounds_claim_witnesses():
    b, cuts, d_values = (1, 5, 3, 4), (0, 2, 1, 9), (1, 4, 3, 4)
    assert _dicts(verify._bounds_claims(b, cuts, d_values, 1, 1, 4)) == [
        _fail("b_eq_cut_low", {"i": 2, "b_i": "5", "cut_sum_plus_1": "3"}),
        _fail("b_lt_cut_high", {"i": 3, "b_i": "3", "cut_sum_plus_1": "2"}),
        _fail("b_le_dom", {"i": 2, "b_i": "5", "d_i": "4"}),
        _fail("b_eq_dom_high", {"i": 2, "b_i": "5", "d_i": "4"}),
        _fail("b_monotone_high", {"i": 4, "j": 3, "b_i": "4", "b_j": "3"}),
    ]


def test_betti_claim_witnesses():
    # c is the clique vector of chordal_with_connectivities(1, 2); b is not its b-vector
    assert _dicts(verify._betti_claims((1, 9, 9, 9), (7, 11, 6, 1), 1, 4, 7)) == [
        _fail("betti_eq_low", {"i": 2, "beta_n_minus_i": "1"}),
        _fail("betti_lt_high", {"i": 3, "beta_n_minus_i": "7"}),
    ]


def test_threshold_claim_witnesses(monkeypatch):
    def mismatch(word, verify=True):
        raise ProfileMismatch(f"closed form disagrees on {word}")

    monkeypatch.setattr(verify, "threshold_profile", mismatch)
    claims = verify._threshold_claims(None, "SDSDDS", (1, 2, 5, 1), (0, 3, 2, 0), 1, 4)
    assert _dicts(claims) == [
        _fail("threshold_closed_forms", {"error": "closed form disagrees on SDSDDS"}),
        _fail("threshold_strict_cut_sums", {"i": 2, "b_next": "5", "cut_sum": "2"}),
    ]


def test_shift_and_complex_claim_witnesses(bp12, monkeypatch):
    """On bp12 every claim after the shift itself fails: its image T gets a
    larger kappa and larger d_i, the bijection and shiftedness checks say
    no, and the complex is declared pure and a matroid."""
    vc, dn = verify.vertex_connectivity, verify.dominating_numbers
    monkeypatch.setattr(verify, "vertex_connectivity", lambda h: vc(h) + 2 * (h is not bp12))
    monkeypatch.setattr(
        verify,
        "dominating_numbers",
        lambda h: dn(h) if h is bp12 else tuple(v + 1 for v in dn(h)),
    )
    monkeypatch.setattr(
        verify,
        "clique_bijection_check",
        lambda g, res: BijectionReport(False, {}, {"clique": [0, 1], "reason": "collision"}),
    )
    monkeypatch.setattr(verify, "is_shifted", lambda cx, order: False)
    monkeypatch.setattr(verify, "is_pure", lambda cx: True)
    monkeypatch.setattr(verify, "is_matroid", lambda cx: True)
    report = evaluate_graph(bp12, "w")
    assert report["claims"] == _passes(*BOUNDS_AND_BETTI, "shift_preserves_cliques") + [
        _fail("shift_preserves_kappa", {"kappa_g": 1, "kappa_t": 3}),
        _fail("shift_dom_le", {"i": 3, "d_i_T": 4, "d_i_G": 3}),
        _fail("shift_dom_eq_high", {"i": 3, "d_i_T": 4, "d_i_G": 3}),
        _fail("shift_clique_bijection", {"clique": [0, 1], "reason": "collision"}),
        _fail("shift_image_complex_shifted", {"word": "SSDDSDS"}),
        _fail("pure_tail_constant", {"tail": ["3", "1"]}),
        _fail("matroid_implies_threshold", {"n": 7}),
    ]
    assert report["failures"] == 7


def test_sds_word_claim_witness(monkeypatch):
    monkeypatch.setattr(verify, "is_matroid", lambda cx: False)
    report = evaluate_graph(graph_from_word("SDDSS"), "w")
    assert report["claims"] == _passes(
        *BOUNDS_AND_BETTI,
        "shift_preserves_cliques",
        "shift_preserves_kappa",
        "shift_dom_le",
        "shift_dom_eq_high",
        "shift_clique_bijection",
        "shift_image_complex_shifted",
        "threshold_closed_forms",
        "threshold_strict_cut_sums",
        "pure_tail_constant",
    ) + [_fail("sds_word_is_matroid", {"word": "SDDSS"})]
    assert report["failures"] == 1


def test_failed_shift_ends_the_shift_claims(bp12, monkeypatch):
    def no_shift(g):
        raise ValueError("no simplicial vertex")

    monkeypatch.setattr(verify, "alpha_shift", no_shift)
    report = evaluate_graph(bp12, "w")
    assert report["claims"] == _passes(*BOUNDS_AND_BETTI) + [
        _fail("shift_preserves_cliques", {"error": "no simplicial vertex"})
    ]
    assert report["failures"] == 1


def test_skip_reports():
    for g, chordal, reason in (
        (Graph.cycle(5), False, "not chordal"),
        (Graph.complete(4), True, "complete graph"),
        (Graph(0), True, "complete graph"),
    ):
        assert evaluate_graph(g, "s") == {
            "instance": "s",
            "n": g.n,
            "m": g.m,
            "chordal": chordal,
            "claims": [{"claim": "all", "status": "skip", "witness": {"reason": reason}}],
            "failures": 0,
        }


def test_special_peo_condition_witnesses(bp12, sun3):
    sun = verify_special_peo(sun3, (3, 4, 5), special_peo(sun3, (3, 4, 5)))
    assert sun == {
        "peo_property": None,
        "a": None,
        "b": {"clique": [2, 3, 5], "s": [5], "late_non_s_vertex": 3, "early_s_vertex": 5},
        "c": {"clique": [2, 3, 5], "i": 2, "vertices_with_degree": 0},
        "d": {"clique_1": [1, 4, 5], "clique_2": [2, 3, 5], "intersection": [5]},
    }

    misplaced = verify_special_peo(bp12, (0, 1, 2, 3), Peo((0, 1, 2, 3, 4, 5, 6)))
    assert misplaced == {
        "peo_property": "not a PEO",
        "a": {"x_index": 1, "vertex": 0},
        "b": {"clique": [0, 1, 5], "s": [0, 1], "late_non_s_vertex": 5, "early_s_vertex": 0},
        "c": {"clique": [0, 1, 5], "i": 3, "vertices_with_degree": 0},
        "d": {"clique_1": [0, 1, 2, 3], "clique_2": [0, 1, 5], "intersection": [0, 1]},
    }

    not_peo = verify_special_peo(Graph.path(4), (3, 2), Peo((1, 0, 2, 3)))
    assert not_peo == {
        "peo_property": "not a PEO",
        "a": None,
        "b": {"clique": [0, 1], "s": [1], "late_non_s_vertex": 0, "early_s_vertex": 1},
        "c": {"clique": [0, 1], "i": 2, "vertices_with_degree": 0},
        "d": {"clique_1": [0, 1], "clique_2": [1, 2], "intersection": [1]},
    }
