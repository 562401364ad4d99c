"""The benchmark's workloads: seeded input streams, the timed call into the
library, and an independent oracle for each output.

Inputs are made here from the seed alone, so a change to the library's own
generators cannot change what is measured.  The library receives only the
generated graphs.  Oracles use networkx (a bench-only dependency) and the
graded Euler identity of the Stanley-Reisner ring, never library code.

The sized workloads cycle through a fixed pattern of sizes and widths, so
every run holds the same mix and seeds change only the graphs drawn.  A
pattern of one or three sizes keeps p50 and p75 inside a size group rather
than on the cost gap between two groups, where a quantile jumps with the
exact item count.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import networkx as nx
from networkx.algorithms.threshold import is_threshold_graph


@dataclass(frozen=True)
class Item:
    id: int
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def text(self) -> str:
        """The graph in the library's text format ("n m", then "u v" lines)."""
        return "".join([f"{self.n} {len(self.edges)}\n", *(f"{u} {v}\n" for u, v in self.edges)])


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, int], Item]  # item i of the seeded stream
    run: Callable[[object, Item], object]  # the timed call; gets the library
    check: Callable[[Item, object], list[str]]  # oracle: the problems found
    warmup: Callable[[random.Random], list[Item]]  # set-up inputs
    # Fixed, so that a faster or slower library is compared at the same
    # percentile; at least ten items lie beyond it in a 25 s run.
    tail_pct: float


# -- generators --------------------------------------------------------------


def _cliques_up_to(masks: list[int], nverts: int, cap: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]

    def extend(base: tuple[int, ...], cand: int) -> None:
        if len(base) == cap:
            return
        t = cand
        while t:
            b = t & -t
            t ^= b
            v = b.bit_length() - 1
            out.append(base + (v,))
            extend(base + (v,), t & masks[v])

    extend((), (1 << nverts) - 1)
    return out


def chordal_edges(n: int, width: int, seed: int) -> tuple[tuple[int, int], ...]:
    """Each new vertex joins a uniformly drawn clique of size <= width.

    Draws exactly as ``cliquevec.random_chordal`` did when this benchmark was
    defined, so ``verify`` reproduces the CI-gate distribution.
    """
    rng = random.Random(seed)
    masks = [0] * n
    edges = []
    for v in range(1, n):
        cliques = _cliques_up_to(masks, v, width)
        for u in cliques[rng.randrange(len(cliques))]:
            edges.append((u, v))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return tuple(edges)


def _gate_instance(rng: random.Random, i: int) -> Item:
    # cliquevec.verify.random_instance(12, rng): n 2..12, width 1..min(4, n).
    n = rng.randint(2, 12)
    width = rng.randint(1, min(4, n))
    return Item(i, n, chordal_edges(n, width, rng.getrandbits(48)))


def _chordal_strata(sizes, widths=(2, 3, 4)):
    """Item i has ``sizes[i % len(sizes)]`` vertices; the attachment width
    steps through ``widths`` once per pass over ``sizes``."""

    def make(rng: random.Random, i: int) -> Item:
        n = sizes[i % len(sizes)]
        width = widths[i // len(sizes) % len(widths)]
        return Item(i, n, chordal_edges(n, width, rng.getrandbits(48)))

    return make


def _gnm_strata(sizes, p):
    """G(n, m) with m = round(p * C(n, 2)), the mean edge count of G(n, p).

    Fixing m removes the edge-count spread of G(n, p) from the cost of a
    table, and with it part of the spread between runs of different seeds.
    """

    def make(rng: random.Random, i: int) -> Item:
        n = sizes[i % len(sizes)]
        pairs = list(combinations(range(n), 2))
        return Item(i, n, tuple(sorted(rng.sample(pairs, round(p * len(pairs))))))

    return make


# -- timed calls -------------------------------------------------------------


def _verify_report(lib, item: Item) -> str:
    """One instance of ``cliquevec verify``, serialized as that command does."""
    report = lib.verify.evaluate_graph(lib.Graph(item.n, item.edges), f"random-{item.id}")
    report["schema"] = lib.cli.SCHEMA
    return json.dumps(report, sort_keys=True)


def _cli(lib, argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Run ``cliquevec <argv>`` in-process with the given stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = lib.cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def _betti(method: str):
    def run(lib, item: Item) -> tuple[int, str]:
        argv = ["betti", "-", "--method", method, "--cap", str(item.n), "--jobs", "1"]
        return _cli(lib, argv, item.text)

    return run


# -- oracles -----------------------------------------------------------------


def _nx_graph(item: Item) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(item.n))
    g.add_edges_from(item.edges)
    return g


def _clique_counts(g: nx.Graph) -> list[int]:
    """``[c_1, ..., c_d]``: the number of cliques of each size."""
    counts = Counter(len(c) for c in nx.enumerate_all_cliques(g))
    return [counts[k] for k in range(1, max(counts, default=0) + 1)]


def k_polynomial(n: int, cliques: list[int]) -> list[int]:
    """Coefficients of t^0..t^n in sum_k f_(k-1) t^k (1-t)^(n-k).

    By the graded Euler identity, the t^j coefficient equals
    sum_i (-1)^i beta_(i,j) of R/I for the clique complex.
    """
    f = [1, *cliques]
    return [
        sum(f[k] * (-1) ** (j - k) * comb(n - k, j - k) for k in range(min(j, len(f) - 1) + 1))
        for j in range(n + 1)
    ]


def check_verify(item: Item, out) -> list[str]:
    rep = json.loads(out)
    g = _nx_graph(item)
    problems = []
    if rep["failures"] != 0 or any(c["status"] == "fail" for c in rep["claims"]):
        problems.append(f"{rep['failures']} claim failures")
    if (rep["n"], rep["m"]) != (item.n, len(item.edges)):
        problems.append("n or m differs from the input")
    if rep["chordal"] != nx.is_chordal(g):
        problems.append("chordality differs from networkx")
    complete = len(item.edges) == item.n * (item.n - 1) // 2
    if complete or not rep["chordal"]:
        if "stats" in rep:
            problems.append("skipped instance carries stats")
        return problems
    stats = rep["stats"]
    if [int(v) for v in stats["c_vector"]] != _clique_counts(g):
        problems.append("c_vector differs from networkx clique counts")
    if stats["kappa"] != nx.node_connectivity(g):
        problems.append("kappa differs from networkx node connectivity")
    if (stats["threshold_word"] is not None) != is_threshold_graph(g):
        problems.append("threshold word disagrees with networkx")
    return problems


def _table(obj: dict, n: int) -> dict:
    entries = {(i, j): int(v) for i, j, v in obj["results"]["hochster"]["entries"]}
    if obj["results"]["hochster"]["n"] != n:
        raise ValueError("table n differs from the input")
    return entries


def _euler_problems(item: Item, entries: dict, cliques: list[int]) -> list[str]:
    problems = []
    kp = k_polynomial(item.n, cliques)
    for j in range(item.n + 1):
        alt = sum((-1) ** i * v for (i, jj), v in entries.items() if jj == j)
        if alt != kp[j]:
            problems.append(f"graded Euler identity fails at degree {j}: {alt} != {kp[j]}")
    non_edges = comb(item.n, 2) - len(item.edges)
    if entries.get((1, 2), 0) != non_edges:
        problems.append(f"beta_1,2 = {entries.get((1, 2), 0)}, non-edges = {non_edges}")
    return problems


def _parse_cli(out) -> dict:
    rc, text = out
    if rc != 0:
        raise ValueError(f"cliquevec exited {rc}")
    return json.loads(text)


def check_betti_all(item: Item, out) -> list[str]:
    obj = _parse_cli(out)
    entries = _table(obj, item.n)
    problems = _euler_problems(item, entries, _clique_counts(_nx_graph(item)))
    totals = [sum(v for (i, _), v in entries.items() if i == k) for k in range(item.n + 1)]
    strand = [entries.get((i, i + 1), 0) for i in range(1, item.n)]
    res = obj["results"]
    for route, want in (("hvector", totals), ("bvector", totals), ("strand", strand)):
        if [int(v) for v in res[route]] != want:
            problems.append(f"{route} route disagrees with the Hochster table")
    if not all(obj["agreement"].values()):
        problems.append(f"reported agreement {obj['agreement']}")
    return problems


def check_betti_table(item: Item, out) -> list[str]:
    obj = _parse_cli(out)
    return _euler_problems(item, _table(obj, item.n), _clique_counts(_nx_graph(item)))


def check_strand(item: Item, out) -> list[str]:
    # Chordal input has a 2-linear resolution, so beta_(i,j) = 0 off the
    # strand and the Euler identity fixes beta_(i,i+1) = (-1)^i [t^(i+1)].
    obj = _parse_cli(out)
    kp = k_polynomial(item.n, _clique_counts(_nx_graph(item)))
    want = [(-1) ** i * kp[i + 1] for i in range(1, item.n)]
    got = [int(v) for v in obj["results"]["strand"]]
    return [] if got == want else ["strand differs from the graded Euler identity"]


# -- the workloads -----------------------------------------------------------


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            make=_gate_instance,
            run=_verify_report,
            check=check_verify,
            warmup=lambda rng: [_gate_instance(rng, -1 - i) for i in range(32)],
            # p99.5 and above of these 2 ms items moved by up to 16% between
            # runs, with interference too short for the calibration to see.
            tail_pct=99.0,
        ),
        Workload(
            "betti_chordal",
            make=_chordal_strata((12, 13, 13)),
            run=_betti("all"),
            check=check_betti_all,
            warmup=lambda rng: [_chordal_strata((8,))(rng, -1)],
            tail_pct=75.0,
        ),
        Workload(
            "betti_nonchordal",
            make=_gnm_strata((11, 12, 13), 0.45),
            run=_betti("hochster"),
            check=check_betti_table,
            warmup=lambda rng: [_gnm_strata((8,), 0.45)(rng, -1)],
            tail_pct=75.0,
        ),
        Workload(
            "strand",
            make=_chordal_strata((17,)),
            run=_betti("strand"),
            check=check_strand,
            warmup=lambda rng: [_chordal_strata((10,))(rng, -1)],
            tail_pct=75.0,
        ),
    )
}
