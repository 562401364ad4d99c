import cliquevec.cliques
import cliquevec.graphs
from cliquevec import Graph, chordal_with_connectivities, evaluate_graph, graph_from_word

from conftest import count_calls


def claims_by_name(report):
    return {c["claim"]: c for c in report["claims"]}


def test_flagship_report(bp12):
    report = evaluate_graph(bp12, "bp12")
    assert report["failures"] == 0
    stats = report["stats"]
    assert stats["b_vector"] == ["1", "2", "3", "1"]
    assert stats["d_i"] == ["2", "3", "3", "1"]
    assert stats["kappa"] == 1 and stats["kappa_tilde"] == 2
    names = claims_by_name(report)
    for required in (
        "b_eq_cut_low",
        "b_lt_cut_high",
        "b_le_dom",
        "b_eq_dom_high",
        "b_monotone_high",
        "betti_eq_low",
        "betti_lt_high",
        "shift_preserves_cliques",
        "shift_preserves_kappa",
        "shift_dom_le",
        "shift_dom_eq_high",
        "shift_clique_bijection",
        "shift_image_complex_shifted",
    ):
        assert names[required]["status"] == "pass", required


def test_flagship_tightness(bp12):
    """b_i < d_i exactly for i <= kappa_tilde, equality above."""
    from cliquevec import b_from_c, clique_vector, dominating_number

    b = b_from_c(clique_vector(bp12))
    for i in range(1, 5):
        di = dominating_number(bp12, i)[0]
        if i <= 2:
            assert b[i - 1] < di
        else:
            assert b[i - 1] == di


def test_complete_graphs_are_skipped():
    report = evaluate_graph(Graph.complete(4), "k4")
    assert report["claims"][0]["status"] == "skip"
    assert report["failures"] == 0


def test_non_chordal_is_skipped():
    report = evaluate_graph(Graph.cycle(5), "c5")
    assert report["claims"][0]["status"] == "skip"
    assert not report["chordal"]


def test_threshold_instances_get_word_claims():
    report = evaluate_graph(graph_from_word("SDSDDS"), "w")
    names = claims_by_name(report)
    assert names["threshold_closed_forms"]["status"] == "pass"
    assert names["threshold_strict_cut_sums"]["status"] == "pass"
    assert report["failures"] == 0


def test_pure_and_matroid_claims_appear():
    report = evaluate_graph(graph_from_word("SDDSS"), "sdss")
    names = claims_by_name(report)
    assert names["pure_tail_constant"]["status"] == "pass"
    assert names["sds_word_is_matroid"]["status"] == "pass"
    assert names["matroid_implies_threshold"]["status"] == "pass"


def test_connectivity_family_grid():
    for kappa in range(1, 4):
        for ktilde in range(kappa, 4):
            g = chordal_with_connectivities(kappa, ktilde)
            report = evaluate_graph(g, f"family-{kappa}-{ktilde}")
            assert report["failures"] == 0, report
            stats = report["stats"]
            assert stats["kappa"] == kappa
            assert stats["kappa_tilde"] == ktilde


def test_corpus_has_no_failures(corpus_small):
    for idx, g in enumerate(corpus_small):
        report = evaluate_graph(g, f"corpus-{idx}")
        assert report["failures"] == 0, report


def test_evaluate_graph_computes_each_object_once(corpus_small, monkeypatch):
    """One maximum cardinality search per graph (G and its shifted image T)
    and one Bron-Kerbosch run per graph (G, T and the word graph of the
    threshold claims).  Calls to ``is_chordal`` itself are mostly memo hits,
    so the search is counted, not the calls."""
    mcs_runs = count_calls(monkeypatch, cliquevec.graphs, "_max_cardinality_search")
    bk_calls = count_calls(monkeypatch, cliquevec.cliques, "_bron_kerbosch")
    for idx, g in enumerate(corpus_small):
        mcs_runs[0] = bk_calls[0] = 0
        report = evaluate_graph(g, f"corpus-{idx}")
        assert report["failures"] == 0
        assert 1 <= mcs_runs[0] <= 2, (idx, mcs_runs[0])
        assert 1 <= bk_calls[0] <= 3, (idx, bk_calls[0])
