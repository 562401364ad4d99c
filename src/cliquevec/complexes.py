"""Simplicial complexes stored by facets, plus the predicates (shifted,
pure, matroid) and the Stanley-Reisner generators (minimal non-faces).

A complex on ``{0..n-1}`` is an antichain of facets; faces are implicit
(membership = subset of some facet), which keeps desk-scale computations
cheap and avoids materializing 2^n faces except where an operation truly
needs them.  ``facets == ()`` denotes the empty complex {emptyset} (the
void complex is not representable).  Vertices outside every facet are
ghosts: they count toward ``n`` but carry no faces.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, GraphFormatError, _bits
from .cliques import maximal_cliques

__all__ = [
    "SimplicialComplex",
    "CapExceeded",
    "clique_complex",
    "skeleton",
    "restrict",
    "minimal_nonfaces",
    "is_shifted",
    "is_pure",
    "is_matroid",
    "parse_complex",
    "format_complex",
]


class CapExceeded(RuntimeError):
    """An enumeration exceeded its configured size cap."""


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal nonzero masks among ``masks``, largest first."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m and all(m & ~k for k in kept):
            kept.append(m)
    return kept


def _maximalize(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    # The caller's first object per set is kept, so facet iteration order
    # (and hence repr) does not depend on how the set was rebuilt.
    by_mask: dict[int, frozenset[int]] = {}
    for s in sets:
        by_mask.setdefault(sum(1 << v for v in s), s)
    kept = [by_mask[m] for m in _maximal_masks(by_mask)]
    return tuple(sorted(kept, key=sorted))


class SimplicialComplex:
    """Immutable facet-list complex on vertices ``0..n-1``."""

    __slots__ = ("n", "facets")

    def __init__(self, n: int, facets: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        fs = [frozenset(f) for f in facets]
        for f in fs:
            if f and (min(f) < 0 or max(f) >= n):
                raise ValueError(f"facet {sorted(f)} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", _maximalize(fs))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex instances are immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={[sorted(f) for f in self.facets]})"

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def is_face(self, face: Iterable[int]) -> bool:
        f = frozenset(face)
        return not f or any(f <= facet for facet in self.facets)

    def faces(self, include_empty: bool = False) -> set[frozenset[int]]:
        """All faces.  Exponential in the largest facet; desk scale only."""
        out: set[frozenset[int]] = set()
        for facet in self.facets:
            members = sorted(facet)
            for r in range(1, len(members) + 1):
                out.update(frozenset(c) for c in combinations(members, r))
        if include_empty:
            out.add(frozenset())
        return out

    def f_vector(self) -> tuple[int, ...]:
        """``(f_-1, f_0, ..., f_(dim))`` with ``f_-1 = 1``."""
        counts = [0] * (self.dim + 1)
        for face in self.faces():
            counts[len(face) - 1] += 1
        return (1, *counts)


def clique_complex(g: Graph) -> SimplicialComplex:
    """Facets are the maximal cliques; every vertex is a face."""
    return SimplicialComplex(g.n, maximal_cliques(g))


def skeleton(cx: SimplicialComplex, t: int) -> SimplicialComplex:
    """Faces of dimension <= t."""
    if t < 0:
        raise ValueError("skeleton dimension must be nonnegative")
    out: list[frozenset[int]] = []
    for f in cx.facets:
        if len(f) - 1 <= t:
            out.append(f)
        else:
            out.extend(frozenset(c) for c in combinations(sorted(f), t + 1))
    return SimplicialComplex(cx.n, out)


def restrict(cx: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Faces entirely inside ``vertices``, re-maximalized."""
    w = frozenset(vertices)
    if w and (min(w) < 0 or max(w) >= cx.n):
        raise ValueError("restriction set out of range")
    return SimplicialComplex(cx.n, (f & w for f in cx.facets))


def minimal_nonfaces(
    cx: SimplicialComplex, vertex_cap: int = 16
) -> list[frozenset[int]]:
    """Inclusion-minimal non-faces (Stanley-Reisner ideal generators).

    Enumerates subsets by increasing size, skipping supersets of non-faces
    already found.  For a clique complex the answer is exactly the non-edge
    list.  Ghost vertices yield singleton non-faces.
    """
    if cx.n > vertex_cap:
        raise CapExceeded(f"minimal_nonfaces capped at {vertex_cap} vertices")
    found: list[frozenset[int]] = []
    for size in range(1, cx.n + 1):
        for sub in combinations(range(cx.n), size):
            s = frozenset(sub)
            if any(nf <= s for nf in found):
                continue
            if not cx.is_face(s):
                found.append(s)
    return sorted(found, key=sorted)


def is_shifted(cx: SimplicialComplex, order: Sequence[int]) -> bool:
    """Shiftedness under an explicit vertex order.

    ``order`` lists the vertices by ascending rank.  The complex is shifted
    when for every face, swapping any member for a higher-ranked non-member
    again gives a face.
    """
    return _is_shifted(cx.n, [sum(1 << v for v in f) for f in cx.facets], order)


def _is_shifted(n: int, facets: Iterable[int], order: Sequence[int]) -> bool:
    """:func:`is_shifted` of the complex on ``n`` vertices with the facet
    bitmasks ``facets``.

    Faces are bitmasks over ranks, so a higher bit is a higher-ranked
    vertex.  It is enough to swap each member for the lowest-ranked
    non-member above it: when every face passes that test, swapping a
    member for any higher non-member is a chain of such swaps, each from a
    face to a face.
    """
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    rank_bit = [0] * n
    for r, v in enumerate(order):
        rank_bit[v] = 1 << r
    faces = {0}
    for f in facets:
        top = sum(rank_bit[v] for v in _bits(f))
        sub = top
        while sub:
            faces.add(sub)
            sub = (sub - 1) & top
    full = (1 << n) - 1
    for face in faces:
        t = face
        while t:
            b = t & -t
            t ^= b
            above = full & ~face & -(b << 1)
            if above and face ^ b ^ (above & -above) not in faces:
                return False
    return True


def is_pure(cx: SimplicialComplex) -> bool:
    """All facets of the same cardinality (vacuously true when empty)."""
    sizes = {len(f) for f in cx.facets}
    return len(sizes) <= 1


def is_matroid(cx: SimplicialComplex, vertex_cap: int = 16) -> bool:
    """Pure, and pure after deleting every vertex subset (brute force)."""
    if cx.n > vertex_cap:
        raise CapExceeded(f"matroid check capped at {vertex_cap} vertices")
    return _is_matroid(cx.n, [sum(1 << v for v in f) for f in cx.facets])


def _is_matroid(n: int, facet_masks: list[int]) -> bool:
    """:func:`is_matroid` of the complex on ``n`` vertices with the facet
    bitmasks ``facet_masks``, past the vertex cap."""
    for smask in range(1 << n):
        keep = ~smask
        sizes = {m.bit_count() for m in _maximal_masks(fm & keep for fm in facet_masks)}
        if len(sizes) > 1:
            return False
    return True


# -- text format ---------------------------------------------------------
#
# First data line "n"; one facet per line as space-separated vertex ids.


def parse_complex(text: str) -> SimplicialComplex:
    from .graphs import _data_lines

    lines = list(_data_lines(text))
    if not lines:
        raise GraphFormatError("no data lines")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise GraphFormatError(f"bad vertex count {lines[0]!r}") from exc
    facets = []
    for line in lines[1:]:
        try:
            facets.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise GraphFormatError(f"bad facet line {line!r}") from exc
    try:
        return SimplicialComplex(n, facets)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def format_complex(cx: SimplicialComplex) -> str:
    lines = [str(cx.n)]
    lines += [" ".join(map(str, sorted(f))) for f in cx.facets]
    return "\n".join(lines) + "\n"
