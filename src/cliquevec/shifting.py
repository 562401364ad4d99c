"""Combinatorial shifting: rewrite a chordal graph into a threshold graph
with the same clique vector.

Fix a maximum clique ``(x_1, ..., x_d)`` and a PEO anchoring it at the end
(:func:`cliquevec.peo.special_peo`).  Edges inside the clique stay put; an
edge from an outside vertex u to its i-th monotone neighbor is rewired to
``u x_i``.  The image graph is threshold and clique-vector-equal to the
input, which is verified on every call rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cliques import _cliques_by_size, clique_vector, maximal_cliques
from .graphs import Graph, _bits, is_chordal
from .peo import Peo, _normalize_clique_order, monotone_neighbors, special_peo
from .threshold import recognize_threshold

__all__ = [
    "ShiftResult",
    "ShiftVerificationError",
    "alpha_shift",
    "clique_bijection_check",
    "BijectionReport",
]


class ShiftVerificationError(RuntimeError):
    """The shifted graph failed one of its guaranteed properties."""


@dataclass(frozen=True)
class ShiftResult:
    shifted_graph: Graph
    word: str
    edge_map: dict
    peo: Peo
    k_clique: tuple[int, ...]


def alpha_shift(g: Graph, k_clique=None) -> ShiftResult:
    """Shift a chordal non-complete graph onto a threshold graph.

    ``k_clique`` must be a maximum clique, given either as an ordered
    sequence ``(x_1, ..., x_d)`` or as a set (ordered by decreasing vertex
    id); by default the lexicographically smallest maximum clique is used.
    The result is verified before returning: the image must be threshold
    and must have the input's clique vector.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
    if not is_chordal(g)[0]:
        raise ValueError("input graph is not chordal")
    if g.is_complete():
        raise ValueError("input graph is complete")

    c = clique_vector(g)
    d = len(c)
    if k_clique is None:
        k_order = min(tuple(sorted(k)) for k in maximal_cliques(g) if len(k) == d)[::-1]
    else:
        k_order = _normalize_clique_order(k_clique)
    if len(k_order) != d:
        raise ValueError(f"anchor clique has size {len(k_order)}, clique number is {d}")
    peo = special_peo(g, k_order)
    n = g.n
    kset = frozenset(k_order)
    # x[i] is the vertex at position n - i + 1 (1-based), i.e. k_order[i-1].
    x = [None] + [peo.order[n - i] for i in range(1, d + 1)]

    edge_map: dict = {}
    for u, v in combinations(sorted(kset), 2):
        if g.has_edge(u, v):
            edge_map[frozenset((u, v))] = frozenset((u, v))
    for u in range(n):
        if u in kset:
            continue
        for i, ui in enumerate(monotone_neighbors(g, peo, u), start=1):
            edge_map[frozenset((u, ui))] = frozenset((u, x[i]))

    if len(edge_map) != g.m:
        raise ShiftVerificationError("edge map is not total")
    images = set(edge_map.values())
    if len(images) != g.m:
        raise ShiftVerificationError("edge map is not injective")

    shifted = Graph(n, (tuple(sorted(e)) for e in images))
    word = recognize_threshold(shifted)
    if word is None:
        raise ShiftVerificationError("image graph is not threshold")
    if clique_vector(shifted) != c:
        raise ShiftVerificationError("clique vector not preserved")
    return ShiftResult(
        shifted_graph=shifted,
        word=word,
        edge_map=edge_map,
        peo=peo,
        k_clique=k_order,
    )


@dataclass(frozen=True)
class BijectionReport:
    ok: bool
    counts: dict
    failure: dict | None

    def to_dict(self) -> dict:
        return {"ok": self.ok, "counts": self.counts, "failure": self.failure}


def clique_bijection_check(g: Graph, result: ShiftResult) -> BijectionReport:
    """Extend the edge map to cliques of every size and verify bijectivity.

    A clique not inside the anchor maps to its earliest vertex u plus the
    anchor vertices indexed by where the remaining members sit in u's
    monotone neighborhood.  Any collision, non-clique image or count
    mismatch is reported as a finding (no exception).
    """
    peo = result.peo
    k_mask = sum(1 << v for v in result.k_clique)
    d = len(result.k_clique)
    # Padded, so a size past either graph's clique number lists no cliques.
    source_by_size = _cliques_by_size(g) + ((),) * d
    target_by_size = _cliques_by_size(result.shifted_graph) + ((),) * d
    n = g.n
    x_bit = [0] + [1 << peo.order[n - i] for i in range(1, d + 1)]
    # index_of[u][v]: the place of v in u's monotone neighborhood, 1-based.
    index_of: dict[int, dict[int, int]] = {}

    counts: dict = {}
    for size in range(1, d + 1):
        source = source_by_size[size]
        target = set(target_by_size[size])
        seen: set[int] = set()
        for c in source:
            if not c & ~k_mask:
                image = c
            else:
                u, *rest = sorted(_bits(c), key=peo.position)
                index = index_of.get(u)
                if index is None:
                    mono = monotone_neighbors(g, peo, u)
                    index = index_of[u] = {v: i for i, v in enumerate(mono, start=1)}
                image = 1 << u
                try:
                    for v in rest:
                        image |= x_bit[index[v]]
                except KeyError:
                    return BijectionReport(
                        False, counts, {"size": size, "clique": _bits(c), "reason": "not in monotone neighborhood"}
                    )
            if image in seen:
                return BijectionReport(
                    False, counts, {"size": size, "clique": _bits(c), "reason": "collision"}
                )
            if image not in target:
                return BijectionReport(
                    False, counts, {"size": size, "clique": _bits(c), "reason": "image not a clique"}
                )
            seen.add(image)
        if len(seen) != len(target):
            return BijectionReport(
                False, counts, {"size": size, "reason": "missed cliques"}
            )
        counts[size] = len(source)
    return BijectionReport(True, counts, None)
