"""Clique enumeration and the clique-derived invariants: the clique vector,
maximal cliques, the maximum pairwise intersection of maximal cliques, and
exact dominating-clique numbers via branch-and-bound set cover.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Sequence

from .graphs import Graph, _bits, clique_walk, is_chordal, once_per_graph

__all__ = [
    "clique_vector",
    "cliques_of_size",
    "maximal_cliques",
    "kappa_tilde",
    "dominating_number",
    "dominating_numbers",
]


@once_per_graph
def clique_vector(g: Graph) -> tuple[int, ...]:
    """The clique vector ``(c_1, ..., c_d)``: ``c_i`` counts i-cliques.

    Chordal graphs are counted through a PEO (each clique is its earliest
    vertex plus a subset of that vertex's monotone neighborhood), other
    graphs off the memoized cliques by size, so the clique walk that
    :func:`dominating_numbers` needs runs once; the two paths agree on
    chordal inputs.
    """
    if g.n == 0:
        raise ValueError("clique vector undefined for the empty graph")
    peo = is_chordal(g)[1]
    if peo is not None:
        degs = []
        later = 0  # the vertices after v in the PEO
        for v in reversed(peo.order):
            degs.append((g._masks[v] & later).bit_count())
            later |= 1 << v
        d = 1 + max(degs)
        return tuple(
            sum(comb(ns, i - 1) for ns in degs) for i in range(1, d + 1)
        )
    return tuple(map(len, _cliques_by_size(g)[1:]))


def cliques_of_size(g: Graph, size: int) -> list[frozenset[int]]:
    """All cliques with exactly ``size`` vertices, in lexicographic order."""
    if size < 1:
        raise ValueError("size must be positive")
    return [_mask_to_set(c) for c in _k_cliques(g, size)]


def _k_cliques(g: Graph, k: int) -> list[int]:
    """The k-cliques of ``g`` as bitmasks in lexicographic order, from a
    :func:`clique_walk` that stops at size k."""
    return [c for c in clique_walk(g._masks, (1 << g.n) - 1, k) if c.bit_count() == k]


@once_per_graph
def _cliques_by_size(g: Graph) -> tuple[tuple[int, ...], ...]:
    """``out[k]`` lists the k-cliques of ``g`` for every k up to the clique
    number, as bitmasks in lexicographic order, all from one
    :func:`clique_walk`."""
    out: list[list[int]] = [[]]
    for clique in clique_walk(g._masks, (1 << g.n) - 1, g.n):
        k = clique.bit_count()
        if k == len(out):
            out.append([])
        out[k].append(clique)
    return tuple(map(tuple, out))


def _branches(masks, p: int, x: int) -> int:
    """The vertices of ``p`` outside the neighborhood of the pivot: the
    vertex of ``p | x`` with the most neighbors in ``p`` (lowest on ties)."""
    pivot = -1
    best = -1
    t = p | x
    while t:
        b = t & -t
        t ^= b
        v = b.bit_length() - 1
        score = (p & masks[v]).bit_count()
        if score > best:
            best, pivot = score, v
    return p & ~masks[pivot]


def _bron_kerbosch(masks, cand: int) -> list[int]:
    """Maximal cliques of the subgraph induced on the vertex mask ``cand``,
    as bitmasks (Bron-Kerbosch with pivoting).

    The search runs on an explicit stack of ``(r, p, x, branches)`` frames,
    so its depth is not bounded by the recursion limit.  A frame is popped,
    its lowest branch vertex taken, the rest pushed back and the child
    pushed above it; cliques come out in depth-first order, lowest branch
    vertex first.
    """
    out: list[int] = []
    if not cand:
        return out
    stack = [(0, cand, 0, _branches(masks, cand, 0))]
    while stack:
        r, p, x, rest = stack.pop()
        b = rest & -rest
        rest ^= b
        if rest:
            stack.append((r, p ^ b, x | b, rest))
        m = masks[b.bit_length() - 1]
        p &= m
        x &= m
        if p:
            rest = _branches(masks, p, x)
            if rest:
                stack.append((r | b, p, x, rest))
        elif not x:
            out.append(r | b)
    return out


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


@once_per_graph
def _clique_masks(g: Graph) -> tuple[int, ...]:
    """The maximal cliques of ``g`` as bitmasks, in Bron-Kerbosch order."""
    return tuple(_bron_kerbosch(g._masks, (1 << g.n) - 1))


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """Inclusion-maximal cliques (Bron-Kerbosch with pivoting), sorted for
    determinism."""
    return sorted(map(_mask_to_set, _clique_masks(g)), key=sorted)


def kappa_tilde(g: Graph) -> int:
    """Maximum cardinality of the intersection of two distinct maximal
    cliques; 0 when there are fewer than two maximal cliques."""
    cliques = _clique_masks(g)
    if len(cliques) < 2:
        return 0
    return max((a & b).bit_count() for a, b in combinations(cliques, 2))


def _min_cover(universe_size: int, cover_masks: list[int]) -> tuple[int, list[int]]:
    """Exact minimum set cover by branch and bound.

    ``cover_masks[j]`` is the bitmask of universe elements candidate j
    covers; every universe element is assumed coverable.  Returns the
    optimum size and one list of chosen candidate indices.
    """
    full = (1 << universe_size) - 1
    elem_cands: list[list[int]] = [[] for _ in range(universe_size)]
    for j, m in enumerate(cover_masks):
        t = m
        while t:
            b = t & -t
            t ^= b
            elem_cands[b.bit_length() - 1].append(j)

    # Greedy upper bound.
    covered = 0
    greedy: list[int] = []
    while covered != full:
        j = max(range(len(cover_masks)), key=lambda j: (cover_masks[j] & ~covered).bit_count())
        greedy.append(j)
        covered |= cover_masks[j]
    best_size = len(greedy)
    best = list(greedy)

    def lower_bound(uncovered: int) -> int:
        # Greedy antichain of pairwise-incompatible elements: elements whose
        # candidate sets are disjoint need distinct cliques.
        chosen_union: set[int] = set()
        count = 0
        t = uncovered
        elems = []
        while t:
            b = t & -t
            t ^= b
            elems.append(b.bit_length() - 1)
        elems.sort(key=lambda e: len(elem_cands[e]))
        for e in elems:
            cands = elem_cands[e]
            if not any(j in chosen_union for j in cands):
                count += 1
                chosen_union.update(cands)
        return count

    def search(uncovered: int, chosen: list[int]):
        nonlocal best_size, best
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = list(chosen)
            return
        if len(chosen) + lower_bound(uncovered) >= best_size:
            return
        t = uncovered
        pick = -1
        fewest = None
        while t:
            b = t & -t
            t ^= b
            e = b.bit_length() - 1
            k = len(elem_cands[e])
            if fewest is None or k < fewest:
                fewest, pick = k, e
        cands = sorted(
            elem_cands[pick],
            key=lambda j: -(cover_masks[j] & uncovered).bit_count(),
        )
        for j in cands:
            chosen.append(j)
            search(uncovered & ~cover_masks[j], chosen)
            chosen.pop()

    search(full, [])
    return best_size, best


def dominating_number(g: Graph, i: int) -> tuple[int, list[frozenset[int]]]:
    """Minimum number of i-cliques needed so that every maximal clique of
    order >= i contains one of them, with a witness family attaining it.

    Containment is non-strict: an i-clique dominates itself.
    """
    cliques = sorted(_clique_masks(g), key=_bits)
    if not cliques:
        raise ValueError("graph has no cliques")
    d = max(c.bit_count() for c in cliques)
    if not 1 <= i <= d:
        raise ValueError(f"i={i} out of range 1..{d}")
    size, chosen = _dominating_cover(cliques, _k_cliques(g, i), i)
    return size, [_mask_to_set(c) for c in chosen]


def dominating_numbers(g: Graph) -> tuple[int, ...]:
    """``(d_1, ..., d_d)``: :func:`dominating_number` for every i up to the
    clique number, from one maximal-clique list and one clique walk."""
    cliques = _clique_masks(g)
    if not cliques:
        raise ValueError("graph has no cliques")
    by_size = _cliques_by_size(g)
    return tuple(
        _dominating_cover(cliques, by_size[i], i)[0] for i in range(1, len(by_size))
    )


def _dominating_cover(
    cliques: Sequence[int], candidates: Sequence[int], i: int
) -> tuple[int, list[int]]:
    """Minimum number of the i-cliques ``candidates`` (bitmasks) such that
    every maximal clique of order >= i among ``cliques`` contains one, with
    the chosen candidates.  Each such clique contains an i-clique, so with
    every i-clique a candidate a cover always exists."""
    universe = [c for c in cliques if c.bit_count() >= i]
    if not universe:
        raise ValueError(f"no maximal clique of order >= {i}")
    cover_masks = [
        sum(1 << idx for idx, target in enumerate(universe) if not cand & ~target)
        for cand in candidates
    ]
    size, chosen = _min_cover(len(universe), cover_masks)
    return size, [candidates[j] for j in chosen]
