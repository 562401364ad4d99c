"""Command-line interface.

Subcommands: ``invariants``, ``word``, ``shift``, ``betti``, ``verify``,
``gen``.  All output is JSON on stdout (one object per line for verify),
with potentially large counts encoded as decimal strings.

Exit codes: 0 ok, 2 input error, 3 precondition violation, 4 resource cap
exceeded, 5 claim failure in verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .betti import (
    DEFAULT_VERTEX_CAP,
    _check_vertex_cap,
    betti_from_bvector,
    betti_from_hvector,
    full_betti_hochster,
    homological_profile,
    linear_strand_hochster,
)
from .cliques import clique_vector, dominating_numbers, kappa_tilde, maximal_cliques
from .complexes import CapExceeded, parse_complex
from .graphs import (
    Graph,
    GraphFormatError,
    format_graph,
    is_chordal,
    parse_graph,
    random_chordal,
    vertex_connectivity,
)
from .shifting import ShiftVerificationError, alpha_shift
from .threshold import (
    bvector_from_word,
    graph_from_word,
    normalize_word,
    random_word,
    threshold_profile,
    word_from_bvector,
)
from .vectors import b_from_c, h_from_f
from .verify import evaluate_graph, random_instance

SCHEMA = "cliquevec/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4
EXIT_CLAIM_FAILURE = 5

# ``random_chordal`` lists the cliques of the whole graph drawn so far for
# each new vertex, so its cost grows faster than n^2 (about 3 s at n = 1000).
GEN_CHORDAL_CAP = 1000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc


def _read_graph(path: str) -> Graph:
    try:
        g = parse_graph(_read_text(path))
    except GraphFormatError as exc:
        raise CliError(EXIT_INPUT, f"bad graph file: {exc}") from exc
    if g.n == 0:
        raise CliError(EXIT_INPUT, "empty graph")
    return g


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _vec(values) -> list[str]:
    return [str(v) for v in values]


def cmd_invariants(args) -> int:
    g = _read_graph(args.path)
    chordal = is_chordal(g)[0]
    c = clique_vector(g)
    b = b_from_c(c)
    d = len(c)
    cliques = maximal_cliques(g)
    out = {
        "schema": SCHEMA,
        "n": g.n,
        "m": g.m,
        "chordal": chordal,
        "clique_number": d,
        "maximal_clique_count": len(cliques),
        "c_vector": _vec(c),
        "b_vector": _vec(b),
        "kappa": vertex_connectivity(g),
        "kappa_tilde": kappa_tilde(g),
        "d_i": _vec(dominating_numbers(g)),
        "theorems_applicable": chordal and not g.is_complete(),
    }
    _emit(out)
    return EXIT_OK


def _from_b_entry(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CliError(EXIT_INPUT, f"bad --from-b entry {tok.strip()!r}: not an integer") from None


def cmd_word(args) -> int:
    if (args.word is None) == (args.from_b is None):
        raise CliError(EXIT_INPUT, "give either a word or --from-b")
    try:
        if args.from_b is not None:
            b = [_from_b_entry(tok) for tok in args.from_b.split(",") if tok.strip()]
            word = word_from_bvector(b)
        else:
            word = normalize_word(args.word)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc
    g = graph_from_word(word)
    out = {
        "schema": SCHEMA,
        "word": word,
        "n": g.n,
        "edges": g.edges(),
        "b_vector": _vec(bvector_from_word(word)),
    }
    if "D" in word:
        profile = threshold_profile(word, verify=g.n <= 12)
        out["profile"] = {
            "kappa": profile.kappa,
            "minimum_cut": sorted(profile.minimum_cut),
            "clique_number": profile.clique_number,
            "d_i": _vec(profile.dominating_numbers),
            "maximal_cliques_by_size": {
                str(i): [sorted(c) for c in cs]
                for i, cs in profile.maximal_cliques_by_size.items()
            },
            "nested_cliques": {
                str(i): sorted(c) for i, c in profile.nested_clique.items()
            },
            "components_after_cut": profile.components_after_cut,
        }
    else:
        out["profile"] = None
        out["profile_inapplicable"] = "complete graph"
    _emit(out)
    return EXIT_OK


def cmd_shift(args) -> int:
    g = _read_graph(args.path)
    try:
        res = alpha_shift(g)
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from exc
    except ShiftVerificationError as exc:
        raise CliError(EXIT_PRECONDITION, f"shift verification failed: {exc}") from exc
    t = res.shifted_graph
    c_g = clique_vector(g)
    dom_g = dominating_numbers(g)
    dom_t = dominating_numbers(t)
    out = {
        "schema": SCHEMA,
        "word": res.word,
        "edges": t.edges(),
        "clique_vector": _vec(c_g),
        "b_vector": _vec(b_from_c(c_g)),
        "edge_map": sorted(
            [sorted(src), sorted(dst)] for src, dst in res.edge_map.items()
        ),
        "k_clique": list(res.k_clique),
        "verified": {
            "threshold": True,
            "clique_vector_preserved": True,
            "kappa_preserved": vertex_connectivity(t) == vertex_connectivity(g),
        },
        "d_i_comparison": {
            "graph": _vec(dom_g),
            "shifted": _vec(dom_t),
        },
    }
    _emit(out)
    return EXIT_OK


def cmd_betti(args) -> int:
    if args.complex:
        try:
            cx = parse_complex(_read_text(args.path))
        except GraphFormatError as exc:
            raise CliError(EXIT_INPUT, f"bad complex file: {exc}") from exc
        if args.method not in ("hochster", "all"):
            raise CliError(EXIT_PRECONDITION, "complex input supports --method hochster")
        table = full_betti_hochster(cx, vertex_cap=args.cap)
        out = {
            "schema": SCHEMA,
            "method": "hochster",
            "table": table.to_json_dict(),
            "profile": homological_profile(table).to_dict(),
        }
        _emit(out)
        return EXIT_OK

    g = _read_graph(args.path)
    methods = (
        ["hochster", "hvector", "bvector", "strand"]
        if args.method == "all"
        else [args.method]
    )
    if "hochster" in methods:
        _check_vertex_cap(g.n, args.cap)  # before any other work
    chordal = is_chordal(g)[0]
    if "bvector" in methods and not chordal:
        raise CliError(EXIT_PRECONDITION, "b-vector route requires a chordal graph")
    c = clique_vector(g) if {"hvector", "bvector"} & set(methods) else ()
    d = len(c)
    n = g.n
    out = {"schema": SCHEMA, "method": args.method, "n": n, "chordal": chordal}

    results: dict = {}
    if "hochster" in methods:
        table = full_betti_hochster(g, vertex_cap=args.cap)
        results["hochster"] = table.to_json_dict()
        out["profile"] = homological_profile(table).to_dict()
    if "hvector" in methods:
        h = h_from_f((1, *c), d)
        results["hvector"] = _vec(betti_from_hvector(h, n, d))
    if "bvector" in methods:
        results["bvector"] = _vec(betti_from_bvector(b_from_c(c), n, d))
    if "strand" in methods:
        results["strand"] = _vec(linear_strand_hochster(g))
    out["results"] = results

    if args.method == "all":
        # "all" includes the b-vector route, which has refused non-chordal input
        totals = _vec(table.totals())
        out["agreement"] = {
            "hvector": totals == results["hvector"],
            "bvector": totals == results["bvector"],
            "strand": _vec(table.strand()) == results["strand"],
        }
    _emit(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    instances: list[tuple[str, Graph]] = []
    if args.file:
        for path in args.file:
            instances.append((path, _read_graph(path)))
    if args.random:
        n, trials, seed = args.random
        if n > 12:
            raise CliError(EXIT_PRECONDITION, "random mode caps n at 12")
        if n < 2:
            raise CliError(EXIT_PRECONDITION, f"random mode draws n from 2..12, got {n}")
        rng = random.Random(seed)
        for t in range(trials):
            instances.append((f"random-{seed}-{t}", random_instance(n, rng)))
    if not instances:
        raise CliError(EXIT_INPUT, "nothing to verify: give --file or --random")

    failures = 0
    for name, g in instances:
        report = evaluate_graph(g, name)
        report["schema"] = SCHEMA
        failures += report["failures"]
        _emit(report)
    _emit({"schema": SCHEMA, "summary": True, "instances": len(instances), "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_CLAIM_FAILURE


def cmd_gen(args) -> int:
    if (args.chordal is None) == (args.threshold is None):
        raise CliError(EXIT_INPUT, "give exactly one of --chordal or --threshold")
    if args.chordal is not None:
        n, width, seed = args.chordal
        if n > GEN_CHORDAL_CAP:
            raise CliError(
                EXIT_CAP, f"gen --chordal capped at {GEN_CHORDAL_CAP} vertices, got n = {n}"
            )
        try:
            g = random_chordal(n, width, seed)
        except ValueError as exc:
            raise CliError(EXIT_PRECONDITION, str(exc)) from exc
        sys.stdout.write(format_graph(g))
    else:
        length, seed = args.threshold
        try:
            print(random_word(length, seed))
        except ValueError as exc:
            raise CliError(EXIT_PRECONDITION, str(exc)) from exc
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call of :func:`main` reads its own argv."""
    parser = argparse.ArgumentParser(
        prog="cliquevec",
        description="b-vectors, clique structure and Betti numbers of chordal graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="clique/b-vector and connectivity invariants")
    p.add_argument("path", nargs="?", default="-", help="graph file ('-' for stdin)")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("word", help="threshold creation-word calculus")
    p.add_argument("word", nargs="?", help="word over {S, D}")
    p.add_argument("--from-b", help="comma-separated positive b-vector")
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("shift", help="combinatorial shift onto a threshold graph")
    p.add_argument("path", nargs="?", default="-")
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("betti", help="Stanley-Reisner Betti numbers")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument(
        "--method",
        choices=["hochster", "hvector", "bvector", "strand", "all"],
        default="all",
    )
    p.add_argument(
        "--cap", type=int, default=DEFAULT_VERTEX_CAP, help="vertex cap for the Hochster scan"
    )
    p.add_argument("--complex", action="store_true", help="input is a complex file")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; the scan runs on one core"
    )
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("verify", help="run the structural claim suite")
    p.add_argument("--file", action="append", help="graph file (repeatable)")
    p.add_argument(
        "--random",
        nargs=3,
        type=int,
        metavar=("N", "TRIALS", "SEED"),
        help="verify TRIALS random chordal graphs with at most N vertices",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="deterministic instance generators")
    p.add_argument("--chordal", nargs=3, type=int, metavar=("N", "WIDTH", "SEED"))
    p.add_argument("--threshold", nargs=2, type=int, metavar=("LEN", "SEED"))
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
