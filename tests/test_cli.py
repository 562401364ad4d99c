import hashlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import cliquevec

import cliquevec.cliques
import cliquevec.graphs
from cliquevec import Graph, chordal_with_connectivities, format_graph, is_chordal, random_chordal
from cliquevec.cli import GEN_CHORDAL_CAP, main

from conftest import count_calls


@pytest.fixture()
def bp_file(tmp_path):
    path = tmp_path / "bp12.graph"
    path.write_text(format_graph(chordal_with_connectivities(1, 2)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()] if out.strip() else []
    return code, lines


def test_invariants(bp_file, capsys):
    code, (obj,) = run(capsys, ["invariants", bp_file])
    assert code == 0
    assert obj["b_vector"] == ["1", "2", "3", "1"]
    assert obj["d_i"] == ["2", "3", "3", "1"]
    assert obj["kappa"] == 1 and obj["kappa_tilde"] == 2
    assert obj["theorems_applicable"] is True
    assert obj["schema"] == "cliquevec/1"


def test_invariants_and_shift_list_maximal_cliques_once_per_graph(
    bp_file, corpus_small, tmp_path, capsys, monkeypatch
):
    """``invariants`` runs Bron-Kerbosch on the input only; ``shift`` on the
    input and on its threshold image."""
    paths = [bp_file]
    for idx in (0, 7, 31, 64):
        path = tmp_path / f"corpus-{idx}.graph"
        path.write_text(format_graph(corpus_small[idx]))
        paths.append(str(path))
    bk_calls = count_calls(monkeypatch, cliquevec.cliques, "_bron_kerbosch")
    for path in paths:
        for command, runs in (("invariants", 1), ("shift", 2)):
            bk_calls[0] = 0
            assert main([command, path]) == 0
            capsys.readouterr()
            assert bk_calls[0] == runs, (command, path, bk_calls[0])


def test_invariants_walks_the_cliques_of_a_non_chordal_graph_once(tmp_path, capsys, monkeypatch):
    """On a non-chordal graph the clique vector and the dominating numbers
    read the same memoized cliques by size: one clique walk in all."""
    rng = random.Random(14)
    g = Graph(14, [e for e in combinations(range(14), 2) if rng.random() < 0.7])
    assert not is_chordal(g)[0]
    path = tmp_path / "gnp14.graph"
    path.write_text(format_graph(g))
    walks = count_calls(monkeypatch, cliquevec.graphs, "clique_walk")
    assert main(["invariants", str(path)]) == 0
    capsys.readouterr()
    assert walks[0] == 1


def test_invariants_non_chordal(tmp_path, capsys):
    path = tmp_path / "c4.graph"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, (obj,) = run(capsys, ["invariants", str(path)])
    assert code == 0
    assert obj["chordal"] is False
    assert obj["theorems_applicable"] is False
    assert obj["c_vector"] == ["4", "4"]


def test_invariants_errors(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    assert main(["invariants", str(bad)]) == 2
    capsys.readouterr()
    empty = tmp_path / "empty.graph"
    empty.write_text("0 0\n")
    assert main(["invariants", str(empty)]) == 2


def test_word_command(capsys):
    code, (obj,) = run(capsys, ["word", "SDSDDS"])
    assert code == 0
    assert obj["b_vector"] == ["1", "3", "2"]
    assert obj["profile"]["kappa"] == 1
    assert obj["profile"]["d_i"] == ["1", "3", "2"]

    code, (obj,) = run(capsys, ["word", "--from-b", "1,4,3,2"])
    assert code == 0
    assert obj["word"] == "SDSDDSDDDS"

    code, (obj,) = run(capsys, ["word", "--from-b", "1,1"])
    assert code == 0
    assert obj["word"] == "SS"
    assert obj["profile"] is None

    assert main(["word", "--from-b", "1,0"]) == 2
    capsys.readouterr()
    assert main(["word", "--from-b", "1, x,3"]) == 2
    assert capsys.readouterr() == ("", "error: bad --from-b entry 'x': not an integer\n")
    assert main(["word", "SXS"]) == 2


def test_shift_command(bp_file, capsys):
    code, (obj,) = run(capsys, ["shift", bp_file])
    assert code == 0
    assert obj["word"] == "SSDDSDS"
    assert obj["verified"] == {
        "threshold": True,
        "clique_vector_preserved": True,
        "kappa_preserved": True,
    }
    assert obj["d_i_comparison"]["shifted"] == ["1", "2", "3", "1"]
    assert len(obj["edge_map"]) == 11


def test_shift_precondition_exits(tmp_path, capsys):
    c4 = tmp_path / "c4.graph"
    c4.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    assert main(["shift", str(c4)]) == 3
    capsys.readouterr()
    k3 = tmp_path / "k3.graph"
    k3.write_text("3 3\n0 1\n0 2\n1 2\n")
    assert main(["shift", str(k3)]) == 3


def test_betti_command_all_methods(bp_file, capsys):
    code, (obj,) = run(capsys, ["betti", bp_file, "--method", "all"])
    assert code == 0
    assert obj["agreement"] == {"hvector": True, "bvector": True, "strand": True}
    assert obj["profile"] == {
        "pd": 5,
        "depth": 2,
        "is_two_linear": True,
        "kappa_from_betti": 1,
    }
    entries = {(i, j): int(v) for i, j, v in obj["results"]["hochster"]["entries"]}
    assert entries[(5, 6)] == 1


def test_betti_single_methods(tmp_path, capsys):
    p3 = tmp_path / "p3.graph"
    p3.write_text("3 2\n0 1\n1 2\n")
    code, (obj,) = run(capsys, ["betti", str(p3), "--method", "strand"])
    assert code == 0
    assert obj["results"]["strand"] == ["1", "0"]
    code, (obj,) = run(capsys, ["betti", str(p3), "--method", "bvector"])
    assert obj["results"]["bvector"] == ["1", "1", "0", "0"]


def test_betti_cap_exit(tmp_path, capsys):
    big = tmp_path / "big.graph"
    big.write_text(format_graph(random_chordal(17, 3, 0)))
    assert main(["betti", str(big), "--method", "hochster"]) == 4
    capsys.readouterr()
    assert main(["betti", str(big), "--method", "hochster", "--cap", "17"]) == 0


def test_betti_cap_exit_on_a_clique_deeper_than_recursion_limit(tmp_path, capsys):
    # Nothing on the way to the vertex cap may recurse once per clique
    # vertex.  The limit is lowered to just above the current depth instead
    # of feeding a K_1200 through the default limit.
    import sys

    from cliquevec import Graph

    big = tmp_path / "k300.graph"
    big.write_text(format_graph(Graph.complete(300)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    try:
        assert main(["betti", str(big)]) == 4
    finally:
        sys.setrecursionlimit(limit)
    assert "capped" in capsys.readouterr().err


def test_betti_cap_checked_before_clique_work(tmp_path, capsys, monkeypatch):
    import cliquevec.cli as cli
    from cliquevec import Graph

    def refuse(*args, **kwargs):
        raise AssertionError("ran before the vertex cap check")

    for name in ("is_chordal", "clique_vector", "full_betti_hochster"):
        monkeypatch.setattr(cli, name, refuse)
    big = tmp_path / "k60.graph"
    big.write_text(format_graph(Graph.complete(60)))
    assert main(["betti", str(big), "--method", "all", "--cap", "10"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Hochster brute force capped at 10 vertices\n"


def test_betti_strand_connected_set_cap(tmp_path):
    from cliquevec import Graph

    # every one of the 2^60 - 1 vertex subsets of K_60 is connected; the
    # strand stops at its own cap instead of running without bound
    big = tmp_path / "k60.graph"
    big.write_text(format_graph(Graph.complete(60)))
    env = dict(os.environ, PYTHONPATH=str(Path(cliquevec.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cliquevec.cli", "betti", str(big), "--method", "strand"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: linear strand capped at 1048576 connected induced sets\n"


def test_one_parser_serves_successive_calls(bp_file, c5_file, capfd, monkeypatch):
    """``betti``, ``invariants`` and ``betti`` again with other flags, in one
    process, print exactly what fresh processes print, and no flag or
    default carries over from one call to the next.  ``--jobs`` is accepted
    and has no effect."""
    calls = [
        ["betti", bp_file, "--method", "hochster", "--cap", "7", "--jobs", "2"],
        ["invariants", c5_file],
        ["betti", bp_file],
        ["betti", c5_file, "--method", "strand"],
        ["betti", bp_file, "--method", "hochster", "--cap", "6"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cliquevec.__file__).parents[1]))
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "cliquevec.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        code = main(argv)
        out, err = capfd.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    # the last call exits 4 on the cap it was given, not on an earlier one
    assert code == 4 and err == "error: Hochster brute force capped at 6 vertices\n"
    args = cliquevec.cli._build_parser().parse_args(["betti", "-"])
    assert (args.method, args.cap, args.jobs, args.complex) == ("all", 16, 1, False)
    # a disjoint C5 and C4 with shuffled labels, read from stdin
    perm = random.Random(5).sample(range(9), 9)
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 4) for i in range(4)]
    text = format_graph(Graph(9, [(perm[u], perm[v]) for u, v in edges]))
    printed = []
    for jobs in (["--jobs", "1"], ["--jobs", "2"], []):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(["betti", "-", "--method", "hochster", "--cap", "9", *jobs])
        printed.append((code, *capfd.readouterr()))
    assert printed[0][0] == 0 and printed[0][1] and printed.count(printed[0]) == 3


def test_oversized_header_is_an_input_error(tmp_path, capsys):
    huge = tmp_path / "huge.graph"
    huge.write_text("1000000000 0\n")
    assert main(["invariants", str(huge)]) == 2
    assert capsys.readouterr().err == (
        "error: bad graph file: vertex count 1000000000 exceeds limit 65536\n"
    )


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    return str(path)


def test_betti_refuses_non_chordal_before_the_scan(c5_file, tmp_path, capsys, monkeypatch):
    import cliquevec.cli as cli
    from cliquevec import Graph

    def refuse(*args, **kwargs):
        raise AssertionError("Hochster scan ran before the chordality check")

    monkeypatch.setattr(cli, "full_betti_hochster", refuse)
    for method in ("all", "bvector"):
        assert main(["betti", c5_file, "--method", method]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: b-vector route requires a chordal graph\n"
    # the vertex cap is still checked first
    c17 = tmp_path / "c17.graph"
    c17.write_text(format_graph(Graph.cycle(17)))
    assert main(["betti", str(c17), "--method", "all"]) == 4
    assert capsys.readouterr().err == "error: Hochster brute force capped at 16 vertices\n"


def test_betti_on_a_graph_lists_no_maximal_cliques(bp_file, c5_file, capsys, monkeypatch):
    """The Hochster scan of a graph starts from its adjacency masks and
    needs no flag check, so Bron-Kerbosch never runs."""
    bk_calls = count_calls(monkeypatch, cliquevec.cliques, "_bron_kerbosch")
    # C5 with --method all stops at the b-vector route's chordality check
    for path, method, code in (
        (c5_file, "hochster", 0), (c5_file, "all", 3), (bp_file, "hochster", 0), (bp_file, "all", 0),
    ):
        assert main(["betti", path, "--method", method]) == code
        capsys.readouterr()
        assert bk_calls[0] == 0, (path, method)


def test_betti_on_a_graph_runs_one_search(bp_file, c5_file, capsys, monkeypatch):
    """``betti`` asks for chordality before it builds the Hochster table;
    both read the one maximum cardinality search kept on the graph."""
    searches = count_calls(monkeypatch, cliquevec.graphs, "_max_cardinality_search")
    for path, method in ((c5_file, "hochster"), (bp_file, "hochster"), (bp_file, "all")):
        searches[0] = 0
        assert main(["betti", path, "--method", method]) == 0
        capsys.readouterr()
        assert searches[0] == 1, (path, method)


def test_betti_hochster_and_strand_skip_the_clique_vector(c5_file, capsys, monkeypatch):
    import cliquevec.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("clique vector counted but not used")

    monkeypatch.setattr(cli, "clique_vector", refuse)
    assert main(["betti", c5_file, "--method", "hochster"]) == 0
    assert capsys.readouterr().out == (
        '{"chordal": false, "method": "hochster", "n": 5, "profile": {"depth": 2, '
        '"is_two_linear": false, "kappa_from_betti": 2, "pd": 3}, "results": '
        '{"hochster": {"entries": [[0, 0, "1"], [1, 2, "5"], [2, 3, "5"], '
        '[3, 5, "1"]], "n": 5}}, "schema": "cliquevec/1"}\n'
    )
    assert main(["betti", c5_file, "--method", "strand"]) == 0
    assert capsys.readouterr().out == (
        '{"chordal": false, "method": "strand", "n": 5, "results": '
        '{"strand": ["5", "5", "0", "0"]}, "schema": "cliquevec/1"}\n'
    )


def test_betti_complex_input(tmp_path, capsys):
    cx = tmp_path / "hollow.cx"
    cx.write_text("3\n0 1\n1 2\n0 2\n")
    code, (obj,) = run(capsys, ["betti", str(cx), "--complex", "--method", "hochster"])
    assert code == 0
    # I = (x0 x1 x2) is principal of degree 3
    entries = {(i, j): int(v) for i, j, v in obj["table"]["entries"]}
    assert entries == {(0, 0): 1, (1, 3): 1}


def test_verify_file_and_exit_codes(bp_file, capsys):
    code, lines = run(capsys, ["verify", "--file", bp_file])
    assert code == 0
    assert lines[-1]["summary"] is True and lines[-1]["failures"] == 0
    assert lines[0]["stats"]["b_vector"] == ["1", "2", "3", "1"]


def test_verify_random(capsys):
    code, lines = run(capsys, ["verify", "--random", "8", "25", "3"])
    assert code == 0
    assert lines[-1]["instances"] == 25 and lines[-1]["failures"] == 0


def test_verify_random_output_is_pinned(capsys):
    """The claim-suite report stream of the CI gate's generator, byte for byte."""
    assert main(["verify", "--random", "12", "200", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "00f74b759123b0fefd6f81640a35ec3e01ba8780959df5d722cf6d69ab2e167c"
    )


def test_verify_argument_validation(capsys):
    assert main(["verify"]) == 2
    capsys.readouterr()
    assert main(["verify", "--random", "13", "1", "0"]) == 3
    assert capsys.readouterr().err == "error: random mode caps n at 12\n"
    for n in ("1", "0", "-3"):
        assert main(["verify", "--random", n, "5", "0"]) == 3
        assert capsys.readouterr() == ("", f"error: random mode draws n from 2..12, got {n}\n")


def test_verify_claim_failure_exit_code(bp_file, capsys, monkeypatch):
    # No honest instance fails a claim, so fake one to pin the exit code.
    import cliquevec.cli as cli_mod

    def fake_evaluate(g, name):
        return {"instance": name, "n": g.n, "m": g.m, "chordal": True,
                "claims": [{"claim": "b_le_dom", "status": "fail"}], "failures": 1}

    monkeypatch.setattr(cli_mod, "evaluate_graph", fake_evaluate)
    assert main(["verify", "--file", bp_file]) == 5


def test_invariants_on_word_graph(tmp_path, capsys):
    from cliquevec import format_graph, graph_from_word

    path = tmp_path / "w.graph"
    path.write_text(format_graph(graph_from_word("SDSDDS")))
    code, (obj,) = run(capsys, ["invariants", str(path)])
    assert code == 0
    assert obj["b_vector"] == ["1", "3", "2"]


def test_gen_deterministic(capsys):
    assert main(["gen", "--chordal", "8", "3", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--chordal", "8", "3", "42"]) == 0
    assert capsys.readouterr().out == first


def test_gen_fixtures(capsys):
    assert main(["gen", "--chordal", "8", "3", "42"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "8 7"
    assert main(["gen", "--threshold", "6", "1"]) == 0
    assert capsys.readouterr().out.strip() == "SSSDSD"
    assert main(["gen", "--chordal", "1", "1", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1 0"
    assert main(["gen"]) == 2


def test_gen_chordal_vertex_cap(capsys):
    # at the cap the draw runs; one vertex above it exits 4 before drawing
    assert main(["gen", "--chordal", str(GEN_CHORDAL_CAP), "1", "0"]) == 0
    assert capsys.readouterr().out.split()[0] == str(GEN_CHORDAL_CAP)
    over = GEN_CHORDAL_CAP + 1
    assert main(["gen", "--chordal", str(over), "4", "0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gen --chordal capped at {GEN_CHORDAL_CAP} vertices, got n = {over}\n"


def test_verify_stream_parses_as_json_lines(bp_file, capsys):
    code, lines = run(capsys, ["verify", "--file", bp_file, "--random", "6", "3", "1"])
    assert code == 0
    assert len(lines) == 5  # 4 instances + summary
    for obj in lines[:-1]:
        assert "claims" in obj and obj["schema"] == "cliquevec/1"


def test_graph_and_complex_output_is_pinned(tmp_path, capsys):
    """``invariants``, ``shift`` and ``betti --method all`` on chordal and
    non-chordal graphs, and ``betti --complex`` on flag and non-flag
    complexes, byte for byte; the digest does not depend on how a vertex
    set is stored."""
    from itertools import combinations

    from cliquevec import Graph

    graphs = [random_chordal(n, w, s) for n, w, s in ((8, 2, 1), (10, 3, 4), (11, 4, 7), (12, 2, 9))]
    graphs += [
        Graph.cycle(5),
        Graph.path(6),
        Graph(6, [(3, 4), (4, 5), (3, 5), (0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5)]),
    ]
    complexes = [
        "3\n0 1\n1 2\n0 2\n",
        "6\n0 1 3\n0 1 5\n0 2 4\n0 2 5\n0 3 4\n1 2 3\n1 2 4\n1 4 5\n2 3 5\n3 4 5\n",
        "6\n" + "".join(f"{a} {b} {c}\n" for a, b, c in combinations(range(6), 3)
                        if a // 2 != b // 2 != c // 2 != a // 2),
    ]
    digest = hashlib.sha256()
    for k, g in enumerate(graphs):
        path = tmp_path / f"g{k}.graph"
        path.write_text(format_graph(g))
        for argv in (["invariants"], ["shift"], ["betti", "--method", "all", "--cap", "12"]):
            main([*argv, str(path)])
            digest.update(capsys.readouterr().out.encode())
    for k, text in enumerate(complexes):
        path = tmp_path / f"c{k}.cx"
        path.write_text(text)
        main(["betti", str(path), "--complex", "--method", "hochster", "--cap", "12"])
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "7a90a75ae6c6f7aa0094f128cf440129018da1398127c064f20ad33d0d4e9fad"
    )
