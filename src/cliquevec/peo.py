"""Perfect elimination orderings, including the clique-anchored ordering
that drives the combinatorial shift.

Positions are 0-based throughout: ``order[0]`` is eliminated first and
``order[-1]`` last.  The anchored ordering places a chosen maximal clique
``(x_1, ..., x_k)`` on the last ``k`` positions with ``x_1`` last, and fills
the remaining positions by repeatedly extracting the batch of simplicial
vertices of one maximal clique of the residual graph.

The finer structural conditions (b)-(d) checked by
:func:`verify_special_peo` do not hold on every chordal instance; see the
module test-suite for a 6-vertex counterexample where no anchored ordering
can satisfy them all.  For this reason construction and verification are
separate: :func:`special_peo` guarantees the PEO property and the position
condition (a), and :func:`verify_special_peo` returns the first
counterexample to each condition, or ``None``, as a plain dict.  It is
library-only: no command and no claim of the suite reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, starmap
from typing import Iterable, Sequence

__all__ = [
    "Peo",
    "is_valid_peo",
    "special_peo",
    "monotone_neighbors",
    "verify_special_peo",
]


@dataclass(frozen=True)
class Peo:
    """An elimination ordering: ``order[p]`` is the vertex at position p."""

    order: tuple[int, ...]
    inverse: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        inv = [0] * n
        for p, v in enumerate(self.order):
            inv[v] = p
        object.__setattr__(self, "inverse", tuple(inv))

    def position(self, v: int) -> int:
        return self.inverse[v]

    def __len__(self) -> int:
        return len(self.order)


def is_valid_peo(g, order: Sequence[int]) -> bool:
    """True iff every vertex is simplicial among the vertices after it."""
    from .graphs import _is_simplicial_masked  # local: avoids cycle

    if sorted(order) != list(range(g.n)):
        return False
    later = 0
    for v in reversed(order):
        if not _is_simplicial_masked(g._masks, v, later):
            return False
        later |= 1 << v
    return True


def _normalize_clique_order(k_clique) -> tuple[int, ...]:
    if isinstance(k_clique, (set, frozenset)):
        return tuple(sorted(k_clique, reverse=True))
    return tuple(k_clique)


def _check_maximal_clique(g, members: Sequence[int]) -> None:
    mset = set(members)
    if len(mset) != len(members):
        raise ValueError("clique has repeated vertices")
    for u, v in combinations(members, 2):
        if not g.has_edge(u, v):
            raise ValueError(f"{sorted(mset)} is not a clique: {u} !~ {v}")
    common = (1 << g.n) - 1
    for v in members:
        common &= g.mask(v)
    for v in members:
        common &= ~(1 << v)
    if common:
        extra = (common & -common).bit_length() - 1
        raise ValueError(f"{sorted(mset)} is not maximal: vertex {extra} extends it")


def special_peo(g, k_clique) -> Peo:
    """PEO anchoring the maximal clique ``k_clique`` at the end.

    ``k_clique`` may be an ordered sequence ``(x_1, ..., x_k)`` or a set (in
    which case the default order is decreasing vertex id).  The returned
    ordering puts ``x_i`` at position ``n - i`` (0-based), and before that
    eliminates batches of simplicial vertices, one maximal clique of the
    residual graph at a time, smallest vertex id first.

    Raises ``ValueError`` if ``g`` is not chordal or complete, or if
    ``k_clique`` is not a maximal clique.
    """
    from .graphs import _is_simplicial_masked, is_chordal  # local: avoids cycle

    k_order = _normalize_clique_order(k_clique)
    chordal, _ = is_chordal(g)
    if not chordal:
        raise ValueError("graph is not chordal")
    if g.is_complete():
        raise ValueError("anchored PEO is only defined for non-complete graphs")
    _check_maximal_clique(g, k_order)
    n = g.n
    masks = g._masks
    k_mask = 0
    for v in k_order:
        k_mask |= 1 << v
    active = (1 << n) - 1
    order: list[int] = []
    while active != k_mask:
        simplicial = [
            v
            for v in range(n)
            if (active >> v) & 1
            and not (k_mask >> v) & 1
            and _is_simplicial_masked(masks, v, active)
        ]
        if not simplicial:
            raise RuntimeError("no simplicial vertex outside the anchor clique")
        u = simplicial[0]
        clique_mask = (masks[u] & active) | (1 << u)
        batch = [
            v
            for v in simplicial
            if (clique_mask >> v) & 1
        ]
        order.extend(batch)
        for v in batch:
            active &= ~(1 << v)
    order.extend(reversed(k_order))

    peo = Peo(tuple(order))
    # Construction invariants; a failure here is a bug, not a data finding.
    if not is_valid_peo(g, peo.order):
        raise RuntimeError("constructed order is not a PEO")
    for i, x in enumerate(k_order, start=1):
        if peo.order[n - i] != x:
            raise RuntimeError("anchor clique not at its pinned positions")
    return peo


def monotone_neighbors(g, peo: Peo, v: int) -> tuple[int, ...]:
    """Neighbors of ``v`` placed after it, in increasing position order."""
    nb = g.mask(v)
    return tuple(u for u in peo.order[peo.position(v) + 1 :] if nb >> u & 1)


def _s_of_clique(g, peo: Peo, clique: Iterable[int]) -> frozenset[int]:
    """Members of a maximal clique whose monotone neighborhood leaves it."""
    members = tuple(clique)
    _check_maximal_clique(g, members)
    cset = set(members)
    return frozenset(
        v for v in members if any(u not in cset for u in monotone_neighbors(g, peo, v))
    )


def verify_special_peo(g, k_clique, peo: Peo) -> dict:
    """Check the PEO property plus the four anchored-ordering conditions.

    (a) the anchor clique occupies the last positions, ``x_i`` at ``n - i``;
    (b) within each maximal clique C, all of ``C - s(C)`` precedes ``s(C)``;
    (c) for ``|s(C)| < i <= |C|`` exactly one vertex of ``C - s(C)`` has
        monotone degree ``i - 1``;
    (d) for intersecting maximal cliques C, C', one of the two one-sided
        precedence conditions holds.

    Failures are data, not errors: the result maps ``"peo_property"``,
    ``"a"``, ``"b"``, ``"c"`` and ``"d"`` to the first counterexample found
    for that condition, or to ``None`` when it holds.  An ordering of the
    wrong length fails every check, with both lengths as the witness.
    """
    from .cliques import maximal_cliques  # local: avoids cycle

    n = g.n
    if len(peo) != n:
        short = {"peo_length": len(peo), "n": n}
        return dict.fromkeys(("peo_property", "a", "b", "c", "d"), short)
    k_order = _normalize_clique_order(k_clique)
    cliques = maximal_cliques(g)
    s_sets = {c: _s_of_clique(g, peo, c) for c in cliques}

    def b_witness(c) -> dict | None:
        s = s_sets[c]
        if not s or len(s) == len(c):
            return None
        max_out = max(peo.position(v) for v in c - s)
        min_in = min(peo.position(v) for v in s)
        if max_out <= min_in:
            return None
        return {
            "clique": sorted(c),
            "s": sorted(s),
            "late_non_s_vertex": peo.order[max_out],
            "early_s_vertex": peo.order[min_in],
        }

    def c_witness(c) -> dict | None:
        s = s_sets[c]
        degrees = [len(monotone_neighbors(g, peo, v)) for v in c - s]
        hits = [(i, degrees.count(i - 1)) for i in range(len(s) + 1, len(c) + 1)]
        return next(
            ({"clique": sorted(c), "i": i, "vertices_with_degree": k} for i, k in hits if k != 1),
            None,
        )

    def d_witness(c1, c2) -> dict | None:
        inter = c1 & c2
        if not inter:
            return None
        min_in = min(peo.position(v) for v in inter)
        # neither side lies wholly before the intersection
        if all(side and max(peo.position(v) for v in side) >= min_in for side in (c1 - c2, c2 - c1)):
            return {"clique_1": sorted(c1), "clique_2": sorted(c2), "intersection": sorted(inter)}
        return None

    misplaced = (
        {"x_index": i, "vertex": x}
        for i, x in enumerate(k_order, start=1)
        if n - i < 0 or peo.order[n - i] != x
    )
    return {
        "peo_property": None if is_valid_peo(g, peo.order) else "not a PEO",
        "a": next(misplaced, None),
        "b": next(filter(None, map(b_witness, cliques)), None),
        "c": next(filter(None, map(c_witness, cliques)), None),
        "d": next(filter(None, starmap(d_witness, combinations(cliques, 2))), None),
    }
