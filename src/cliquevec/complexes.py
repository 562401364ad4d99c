"""Simplicial complexes stored by facets, plus restriction and the
predicates (shifted, pure, matroid).

A complex on ``{0..n-1}`` is an antichain of facets, stored only as
vertex bitmasks; faces are implicit (membership = submask of some facet),
which keeps desk-scale computations cheap and avoids materializing 2^n
faces except where an operation truly needs them.  ``facets == ()``
denotes the empty complex {emptyset} (the void complex is not
representable).  Vertices outside every facet are ghosts: they count
toward ``n`` but carry no faces.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graphs import Graph, GraphFormatError, _bits
from .cliques import _clique_masks

__all__ = [
    "SimplicialComplex",
    "CapExceeded",
    "clique_complex",
    "restrict",
    "is_shifted",
    "is_pure",
    "is_matroid",
    "parse_complex",
    "format_complex",
]


MATROID_VERTEX_CAP = 16


class CapExceeded(RuntimeError):
    """An enumeration exceeded its configured size cap."""


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal nonzero masks among ``masks``, largest first."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m and all(m & ~k for k in kept):
            kept.append(m)
    return kept


def _facet_faces(facet_masks: Sequence[int]) -> Iterator[int]:
    """Each nonempty face of the complex with these facets, once: the
    subsets of every facet, less those an earlier facet gave."""
    seen: set[int] = set()
    for fm in facet_masks:
        sub = fm
        while sub:
            if sub not in seen:
                seen.add(sub)
                yield sub
            sub = (sub - 1) & fm


class SimplicialComplex:
    """Immutable facet-list complex on vertices ``0..n-1``.

    ``_masks`` holds the facets as vertex bitmasks, in lexicographic order
    of their sorted vertex lists; it is the only stored form of the
    facets, and :attr:`facets` is a view derived from it.
    """

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, facets: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = []
        for f in facets:
            f = sorted(set(f))
            if f and (f[0] < 0 or f[-1] >= n):
                raise ValueError(f"facet {f} out of range for n={n}")
            masks.append(sum(1 << v for v in f))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_masks", tuple(sorted(_maximal_masks(masks), key=_bits)))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex instances are immutable")

    @property
    def facets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_bits(m)) for m in self._masks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={[_bits(m) for m in self._masks]})"

    @property
    def dim(self) -> int:
        return max((m.bit_count() for m in self._masks), default=0) - 1

    def is_face(self, face: Iterable[int]) -> bool:
        f = frozenset(face)
        return not f or any(f <= facet for facet in self.facets)

    def faces(self) -> set[frozenset[int]]:
        """All nonempty faces.  Exponential in the largest facet; desk scale only."""
        return {frozenset(_bits(m)) for m in _facet_faces(self._masks)}

    def f_vector(self) -> tuple[int, ...]:
        """``(f_-1, f_0, ..., f_(dim))`` with ``f_-1 = 1``."""
        counts = [0] * (self.dim + 1)
        for m in _facet_faces(self._masks):
            counts[m.bit_count() - 1] += 1
        return (1, *counts)


def _from_masks(n: int, facet_masks: Iterable[int]) -> SimplicialComplex:
    """The complex on ``n`` vertices with the facets ``facet_masks``: in
    range, nonzero, distinct and inclusion-maximal, none of which is
    checked."""
    cx = object.__new__(SimplicialComplex)
    object.__setattr__(cx, "n", n)
    object.__setattr__(cx, "_masks", tuple(sorted(facet_masks, key=_bits)))
    return cx


def clique_complex(g: Graph) -> SimplicialComplex:
    """Facets are the maximal cliques; every vertex is a face."""
    return _from_masks(g.n, _clique_masks(g))


def restrict(cx: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Faces entirely inside ``vertices``, re-maximalized."""
    w = frozenset(vertices)
    if w and (min(w) < 0 or max(w) >= cx.n):
        raise ValueError("restriction set out of range")
    wmask = sum(1 << v for v in w)
    return _from_masks(cx.n, _maximal_masks(fm & wmask for fm in cx._masks))


def is_shifted(cx: SimplicialComplex, order: Sequence[int]) -> bool:
    """Shiftedness under an explicit vertex order.

    ``order`` lists the vertices by ascending rank.  The complex is shifted
    when for every face, swapping any member for a higher-ranked non-member
    again gives a face.

    Faces are bitmasks over ranks, so a higher bit is a higher-ranked
    vertex.  It is enough to swap each member for the lowest-ranked
    non-member above it: when every face passes that test, swapping a
    member for any higher non-member is a chain of such swaps, each from a
    face to a face.
    """
    n = cx.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    rank_bit = [0] * n
    for r, v in enumerate(order):
        rank_bit[v] = 1 << r
    faces = {0}
    for fm in cx._masks:
        top = sum(rank_bit[v] for v in _bits(fm))
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
    return len({m.bit_count() for m in cx._masks}) <= 1


def is_matroid(cx: SimplicialComplex) -> bool:
    """Pure, and pure after deleting every vertex subset (brute force)."""
    if cx.n > MATROID_VERTEX_CAP:
        raise CapExceeded(f"matroid check capped at {MATROID_VERTEX_CAP} vertices")
    for smask in range(1 << cx.n):
        keep = ~smask
        sizes = {m.bit_count() for m in _maximal_masks(fm & keep for fm in cx._masks)}
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
    lines += [" ".join(map(str, _bits(m))) for m in cx._masks]
    return "\n".join(lines) + "\n"
