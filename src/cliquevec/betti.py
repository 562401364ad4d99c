"""Graded Betti numbers of Stanley-Reisner quotients by four independent
routes, plus exact simplicial homology over characteristic zero.

The routes: brute-force Hochster sums over every vertex subset (the full
table, under a vertex cap and a face cap), the closed h-vector formula, the
closed b-vector formula, and the linear strand of a graph's clique complex
from its connected induced sets.

The Hochster route scans the 2^(n_i) subsets of each connected component
on its own: the restriction to W is the disjoint union of the restrictions
to its parts in the components, so the components' counts by reduced
homology and size are joined by one rule (the empty complex is the
identity; otherwise the dimensions add degree by degree and H~_0 gains 1)
and expanded into Betti entries once.  Graphs and complexes share one
scan, which glues W at the vertices whose link is induced and sends only
the W it cannot glue to the homology engine.

The strand route uses Hochster's formula on the strand,
``beta_{j-1,j} = sum over j-subsets W of (comp(G[W]) - 1)``, together with
the identity ``sum_W comp(G[W]) x^|W| = sum_C x^|C| (1+x)^(n-|N[C]|)``
over the connected induced sets C.  The right-hand side needs only how many sets C
have each pair ``(|C|, |N[C]|)``, so one reverse search (Avis & Fukuda,
"Reverse search for enumeration", 1996; Wernicke's ESU, IEEE/ACM TCBB
2006) counts them into an (n+1)^2 tally without listing the sets.  Its
frames merge by ``(N[C], decided)``, the pair that fixes a frame's
subtree, so each distinct subtree is expanded once for all the sets C that
reach it.  It stops with :class:`CapExceeded` when the graph has more
than ``CONNECTED_SET_CAP`` (2^20) connected induced sets, which no graph on
at most 20 vertices has; the sets are still counted exactly, and the count
is checked once per distinct frame.

Indexing convention (important): all public outputs are reported for the
quotient ring R/I.  The closed h-vector formula for ideals with a 2-linear
resolution natively counts the Betti numbers of the ideal I itself, which
sit one homological step below those of R/I; the formula index i therefore
maps to homological index i+1 of R/I.  This calibration is pinned by the
3-vertex path: its ideal has the single generator x0*x2, so the quotient
table is {(0,0): 1, (1,2): 1}, and the formula must produce the value 1 at
quotient index 1.  Every route here reports in this common quotient
indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .complexes import CapExceeded, SimplicialComplex, _facet_faces, _maximal_masks
from .graphs import (
    Graph,
    _bits,
    _max_cardinality_search,
    _search_order,
    clique_walk,
    masked_component_count,
)

__all__ = [
    "BettiTable",
    "HomologicalProfile",
    "reduced_homology_ranks",
    "full_betti_hochster",
    "linear_strand_hochster",
    "betti_from_hvector",
    "betti_from_bvector",
    "homological_profile",
]

DEFAULT_VERTEX_CAP = 16
DEFAULT_FACE_CAP = 1 << 14
CONNECTED_SET_CAP = 1 << 20
# bits per set size in a packed count: room for any count up to the cap
_SLOT = CONNECTED_SET_CAP.bit_length() + 1


def _comb0(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def _faces_by_dim(faces: Iterable[int], face_cap: int) -> list[list[int]]:
    """The distinct nonempty faces ``faces`` (bitmasks) grouped by
    dimension, each group in the order drawn.

    Raises :class:`CapExceeded` as soon as more than ``face_cap`` faces
    have been drawn from ``faces``, so the work done is bounded by the cap.
    """
    by_dim: list[list[int]] = []
    for count, m in enumerate(faces, 1):
        if count > face_cap:
            raise CapExceeded(f"face count exceeds cap {face_cap}")
        k = m.bit_count()
        while len(by_dim) < k:
            by_dim.append([])
        by_dim[k - 1].append(m)
    return by_dim


def _boundary_rank(faces: Sequence[int], rows: Sequence[int]) -> int:
    """Rank over Q of the boundary map from ``faces`` (all k-faces) to
    ``rows`` (all (k-1)-faces).

    Exact sparse column reduction over the integers: each column is reduced
    against the earlier columns by its lowest row.  A unit pivot eliminates
    directly; a non-unit pivot p first scales the reduced column by p, an
    invertible operation over Q, so the rank over Q is kept.
    """
    index = {m: i for i, m in enumerate(rows)}
    pivots: dict[int, dict[int, int]] = {}  # lowest row -> reduced column
    for face in faces:
        col: dict[int, int] = {}
        sign = 1
        t = face
        while t:
            b = t & -t
            t ^= b
            col[index[face ^ b]] = sign
            sign = -sign
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            p, f = other[low], col[low]
            if p == 1 or p == -1:
                f *= p
            else:
                col = {r: p * v for r, v in col.items()}
            for r, v in other.items():
                x = col.get(r, 0) - f * v
                if x:
                    col[r] = x
                else:
                    del col[r]
    return len(pivots)


def _homology_dims(by_dim: Sequence[Sequence[int]], adj: Sequence[int]) -> tuple[int, ...]:
    """Reduced homology dimensions over a characteristic-zero field of the
    complex with the faces ``by_dim`` (from :func:`_faces_by_dim`), whose
    edges are among those of the graph ``adj``.

    Returns ``dims`` with ``dims[k + 1] = dim H~_k`` for k = -1 .. dim.
    Uses the reduced chain complex (the empty face included).  Rank of the
    vertex-to-empty-face map is 1, rank of the edge boundary is #vertices
    minus #components (counted in ``adj``), and the higher boundary ranks
    come from :func:`_boundary_rank`: exact over Q, with no modular
    arithmetic, so torsion (as in RP^2) never shows up as homology.
    """
    if not by_dim:
        return (1,)  # empty complex: only H~_-1 survives
    top = len(by_dim)
    ranks = [0] * (top + 1)  # ranks[k] = rank of boundary C_k -> C_(k-1)
    ranks[0] = 1  # every vertex maps to the empty face
    ranks[1] = len(by_dim[0]) - masked_component_count(adj, sum(by_dim[0]))
    for k in range(2, top):
        ranks[k] = _boundary_rank(by_dim[k], by_dim[k - 1])
    dims = [0] * (top + 1)
    dims[0] = 1 - ranks[0]  # H~_-1
    for k in range(top):
        dims[k + 1] = len(by_dim[k]) - ranks[k] - ranks[k + 1]
    return tuple(dims)


def reduced_homology_ranks(
    cx: SimplicialComplex, face_cap: int = DEFAULT_FACE_CAP
) -> tuple[int, ...]:
    """Reduced homology dimensions of ``cx``; index k+1 holds ``dim H~_k``.

    The empty complex gives ``(1,)`` (only H~_-1).  Raises
    :class:`CapExceeded` when the total face count exceeds ``face_cap``.
    """
    by_dim = _faces_by_dim(_facet_faces(cx._masks), face_cap)
    return _homology_dims(by_dim, _skeleton(cx._masks, cx.n))


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of R/I: ``entries[(i, j)]`` is beta_{i,j}.

    Only nonzero entries are stored; ``(0, 0) -> 1`` is always present.
    """

    n: int
    entries: dict

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(v for (bi, _), v in self.entries.items() if bi == i)

    def totals(self) -> tuple[int, ...]:
        return tuple(self.total(i) for i in range(self.n + 1))

    def strand(self) -> tuple[int, ...]:
        """Linear-strand values beta_{i,i+1} for i = 1..n-1."""
        return tuple(self.entry(i, i + 1) for i in range(1, self.n))

    def to_json_dict(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "n": self.n,
            "entries": [[i, j, str(v)] for (i, j), v in items],
        }


def _skeleton(facet_masks: Sequence[int], n: int) -> list[int]:
    """Adjacency masks of the 1-skeleton of the complex with these facets."""
    adj = [0] * n
    for fm in facet_masks:
        t = fm
        while t:
            b = t & -t
            t ^= b
            adj[b.bit_length() - 1] |= fm ^ b
    return adj


def _induced_links(facet_masks: Sequence[int], adj: Sequence[int]) -> int:
    """Mask of the vertices v whose link is induced: the restriction to N(v),
    v's neighbours in the 1-skeleton ``adj``, of the complex with these
    facets.  The two agree when their facets do, the maximal ``fm - v``
    over the facets through v and the maximal ``fm & N(v)``.  A ghost
    vertex has a void link and never passes."""
    passing = 0
    for v, nb in enumerate(adj):
        b = 1 << v
        star = [fm ^ b for fm in facet_masks if fm & b]
        if star and set(_maximal_masks(star)) == set(_maximal_masks(fm & nb for fm in facet_masks)):
            passing |= b
    return passing


def _restriction_dims(
    facet_masks: Sequence[int], adj: Sequence[int], w: int, face_cap: int
) -> tuple[int, ...]:
    """Reduced homology dimensions of the restriction to ``w`` of the
    complex with these facets and 1-skeleton ``adj``: the facets are
    restricted to w, the maximal ones kept, a cone skipped, and the faces of
    any other restriction are the subsets of its facets."""
    sub = _maximal_masks(fm & w for fm in facet_masks)
    if not sub:
        return (1,)  # restriction is the empty complex
    common = sub[0]
    for c in sub[1:]:
        common &= c
    if common:
        return ()  # cone, hence contractible
    return _homology_dims(_faces_by_dim(_facet_faces(sub), face_cap), adj)


def _hochster_scan(
    facet_masks: Sequence[int] | None, adj: Sequence[int], size: int, face_cap: int
) -> dict:
    """Reduced homology of the restrictions to the subsets W of the
    ``size`` vertices, counted by (dims, |W|): ``counts[dims, j]`` is the
    number of W of size j whose restriction has the reduced homology
    ``dims`` (``dims[k + 1] = dim H~_k``, trailing zeros stripped).

    The complex has the facets ``facet_masks`` (None for the clique complex
    of ``adj``) and the 1-skeleton ``adj``.  W is visited as its lowest
    vertex b plus ``rest = W - b``, grouped by b from the top vertex down,
    so every proper subset of W is known when W comes up.  If b passes
    :func:`_induced_links`, as every vertex of a clique complex does, a
    contractible link ``N(b) & rest`` keeps the entry of ``rest``, an empty
    one adds a point, and any other goes through :meth:`_HochsterTable.glue`;
    chordal input in elimination order only meets the first two.  A W
    refused there, or whose b fails the test, goes to
    :meth:`_HochsterTable.entry`.
    """
    links = (1 << size) - 1 if facet_masks is None else _induced_links(facet_masks, adj)
    scan = _HochsterTable(facet_masks, adj, links, face_cap)
    table, plus, counts, entry, glue = scan.table, scan.plus, scan.counts, scan.entry, scan.glue
    empty, contractible = _EMPTY, _CONTRACTIBLE
    counts[empty][0] += 1
    for v in reversed(range(size)):
        b = 1 << v
        nb = adj[v]
        subsets = range(0, (1 << size) - b, b << 1)
        if not links & b:
            for rest in subsets:
                t = table[rest | b] = entry(rest | b)
                counts[t][rest.bit_count() + 1] += 1
            continue
        for rest in subsets:
            t = table[rest]
            c = table[nb & rest]
            if c == empty:
                t = plus[t] or glue(t, c)
            elif c != contractible:
                t = glue(t, c) or entry(rest | b)
            table[rest | b] = t
            counts[t][rest.bit_count() + 1] += 1
    return {
        (dims, j): count
        for dims, row in zip(scan.dims_of, counts)
        for j, count in enumerate(row)
        if count
    }


_EMPTY, _CONTRACTIBLE = 1, 2  # ids of the dims (1,) and () in every scan


class _HochsterTable:
    """Reduced homology ids of the restrictions X(w), by vertex mask w, of
    the complex that :func:`_hochster_scan` takes; ``links`` masks its
    vertices with an induced link.  ``table[w]`` is 0 while unknown;
    ``dims_of[id]`` has ``dims[k + 1] = dim H~_k`` with trailing zeros
    stripped, so the empty complex is ``(1,)`` and every contractible
    complex ``()``.
    """

    __slots__ = (
        "facets", "adj", "links", "face_cap", "table", "ids", "dims_of", "plus", "counts", "glued"
    )

    def __init__(self, facets: Sequence[int] | None, adj: Sequence[int], links: int, face_cap: int):
        self.facets, self.adj, self.links, self.face_cap = facets, adj, links, face_cap
        self.table = [0] * (1 << len(adj))
        self.ids: dict[tuple[int, ...], int] = {}
        self.dims_of: list[tuple[int, ...]] = [()]  # id 0: not yet known
        self.plus = [0]  # id -> id of the same complex plus a point, 0 if unknown
        self.counts: list[list[int]] = [[]]  # id -> number of W of each size
        self.table[0] = self.intern((1,))
        self.intern(())
        # a point is the cone over the empty link, glued to the empty complex
        self.plus[_EMPTY] = _CONTRACTIBLE
        self.glued = {(_EMPTY, _EMPTY): _CONTRACTIBLE}

    def intern(self, dims: tuple[int, ...]) -> int:
        while dims and not dims[-1]:
            dims = dims[:-1]
        t = self.ids.get(dims)
        if t is None:
            t = self.ids[dims] = len(self.dims_of)
            self.dims_of.append(dims)
            self.plus.append(0)
            self.counts.append([0] * (len(self.adj) + 1))
        return t

    def glue(self, t: int, c: int) -> int:
        """Id of X(W) from the ids ``t`` of X(W - v) and ``c`` of the link
        X(N(v) & W), or 0 when refused; memoized, in ``plus`` for c empty.
        Valid at a vertex v whose link is induced.

        X(W) is X(W - v) with the cone over the link glued on along the
        link, so reduced Mayer-Vietoris reads ``H~_k(link) -> H~_k(W - v)
        -> H~_k(W) -> H~_(k-1)(link) -> H~_(k-1)(W - v)``.  When no degree
        k has homology on both sides the outer maps vanish, and over Q
        ``dim H~_k(W) = dim H~_k(W - v) + dim H~_(k-1)(link)``.
        """
        g = self.glued.get((t, c))
        if g is None:
            rest, link = self.dims_of[t], self.dims_of[c]
            g = 0
            if not any(x and y for x, y in zip(rest, link)):
                dims = [*rest, *[0] * (len(link) + 1 - len(rest))]
                for k, h in enumerate(link, 1):
                    dims[k] += h
                g = self.intern(tuple(dims))
            self.glued[t, c] = g
            if c == _EMPTY:
                self.plus[t] = g
        return g

    def entry(self, w: int) -> int:
        """Id of X(w) once every proper subset of w is in ``table``:
        :meth:`glue` at each vertex of w with an induced link but the lowest,
        which the scan has tried.  If all refuse, the homology engine takes
        the cliques in w of a clique complex, or :func:`_restriction_dims`.
        """
        table, adj = self.table, self.adj
        r = w & (w - 1) & self.links
        while r:
            b = r & -r
            r ^= b
            t = self.glue(table[w ^ b], table[adj[b.bit_length() - 1] & w])
            if t:
                return t
        if self.facets is not None:
            return self.intern(_restriction_dims(self.facets, adj, w, self.face_cap))
        by_dim = _faces_by_dim(clique_walk(adj, w, w.bit_count()), self.face_cap)
        return self.intern(_homology_dims(by_dim, adj))


def _join(a: dict, b: dict) -> dict:
    """Counts by (dims, |W|) of the disjoint union of two complexes from the
    counts of each (see :func:`_hochster_scan`).

    A subset of the union is a pair of subsets, one of each side, and its
    restriction is the disjoint union of theirs.  The empty complex
    ``(1,)`` is the identity; for two nonempty complexes the reduced
    homology adds degree by degree, and H~_0 gains 1 for the one more
    component.
    """
    union: dict = {}
    out: dict = {}
    for (x, i), p in a.items():
        for (y, j), q in b.items():
            dims = union.get((x, y))
            if dims is None:
                if x == (1,) or y == (1,):
                    dims = y if x == (1,) else x
                else:
                    sums = [0] * max(len(x), len(y), 2)
                    for k, h in (*enumerate(x), *enumerate(y)):
                        sums[k] += h
                    sums[1] += 1
                    dims = tuple(sums)
                union[x, y] = dims
            key = dims, i + j
            out[key] = out.get(key, 0) + p * q
    return out


def _betti_entries(counts: dict) -> dict:
    """Betti entries of counts by (dims, |W|) from :func:`_hochster_scan`:
    ``count`` subsets W of size j with ``dim H~_k = h`` add ``h * count``
    to ``beta_{j-k-1, j}``."""
    entries: dict = {}
    for (dims, j), count in counts.items():
        for kk, h in enumerate(dims):
            if h:
                key = (j - kk, j)
                entries[key] = entries.get(key, 0) + h * count
    return entries


def _check_vertex_cap(n: int, vertex_cap: int) -> None:
    if n > vertex_cap:
        raise CapExceeded(f"Hochster brute force capped at {vertex_cap} vertices")


def full_betti_hochster(
    cx: SimplicialComplex | Graph,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    face_cap: int = DEFAULT_FACE_CAP,
) -> BettiTable:
    """Full graded Betti table of R/I_cx by brute-force Hochster sums.

    ``cx`` is a complex, or a graph standing for its clique complex.

    For every vertex subset W the reduced (co)homology of the restriction
    contributes ``dim H~_(|W|-i-2)`` to ``beta_{i+1,|W|}``; over a field of
    characteristic zero homology and cohomology dimensions agree, so the
    homology engine above is used directly, with boundary ranks exact over
    Q.  Cost is exponential in n, hence the vertex cap.

    The input is split into the connected components of its 1-skeleton G
    (a ghost vertex is a component of its own), and each component's
    2^(n_i) subsets are scanned on their own and counted by reduced
    homology and size.  The restriction to W is the disjoint union of the
    restrictions to its parts in the components, so the counts are joined
    by :func:`_join` and expanded into Betti entries once, at the end.

    G is relabelled by one maximum cardinality search, so that position p
    of its elimination order becomes vertex p; the search finishes each
    component before it starts the next, so each component is a run of
    consecutive labels; a graph reuses the order :func:`is_chordal` reads.
    Every component takes one scan (:func:`_hochster_scan`), which fills a
    table of 2^(n_i) slots (about 8 MB at n_i = 20) by vertex mask.  W is
    read off the entries of W - v and N(v) & W by one Mayer-Vietoris rule
    (:meth:`_HochsterTable.glue`) at any vertex v whose link is the
    restriction to N(v), as is every vertex of a clique complex.  Only a W
    that no such vertex glues reaches the homology engine, such as the two
    4-cycles of two 4-cycles joined through a hub vertex, or a W of a
    non-flag complex whose lowest vertex fails the test.  ``face_cap``
    applies to each restriction the engine sees.  Restrictions to at most
    14 vertices have at most 16,383 faces, so the default cap can fire
    only from 15 vertices on.
    """
    n = cx.n
    _check_vertex_cap(n, vertex_cap)
    graph = isinstance(cx, Graph)
    skeleton = cx._masks if graph else _skeleton(cx._masks, n)
    order = _search_order(cx) if graph else _max_cardinality_search(skeleton)
    # relabel so that position p of an elimination order becomes vertex p
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p

    def relabel(mask: int) -> int:
        return sum(1 << pos[u] for u in _bits(mask))

    adj = [relabel(skeleton[v]) for v in order]
    facet_masks = None if graph else [relabel(fm) for fm in cx._masks]
    parts = []  # (facets or None, adjacency, size) of each component
    start = reach = 0
    for p, nb in enumerate(adj):
        reach = max(reach, nb.bit_length() - 1)
        if reach <= p:  # no vertex up to p has a neighbour past p
            size = p + 1 - start
            facets = None if graph else [
                fm >> start for fm in facet_masks if fm >> start & (1 << size) - 1
            ]
            parts.append((facets, [m >> start for m in adj[start : p + 1]], size))
            start = p + 1
    scans = [_hochster_scan(*part, face_cap) for part in parts]
    counts, *rest = scans or [{((1,), 0): 1}]  # n = 0: the empty complex
    for scan in rest:
        counts = _join(counts, scan)
    return BettiTable(n, _betti_entries(counts))


def _strand_cap() -> CapExceeded:
    return CapExceeded(f"linear strand capped at {CONNECTED_SET_CAP} connected induced sets")


def _connected_set_tally(masks: Sequence[int]) -> list[int]:
    """Count the nonempty connected induced sets C of the graph with
    adjacency bitmasks ``masks`` by size and closed neighbourhood:
    ``tally[|C| * (n + 1) + |N[C]|]`` is the number of such C.

    Reverse search from the lowest vertex r of C (Avis & Fukuda 1996;
    Wernicke's ESU, 2006).  A frame is ``(N[C], decided)``, where
    ``decided`` holds the vertices up to r, C and the vertices forbidden on
    this branch.  A frame's children are C + v for each undecided vertex v
    of its frontier ``N[C] & ~decided``, in ascending order, with the
    frontier vertices up to v added to ``decided``.  This is the split
    "v joins C" / "v is forbidden" unrolled: every connected proper
    superset of C that avoids the forbidden vertices holds a frontier
    vertex, and its lowest one names its branch, so each set is reached
    exactly once.  A child with an empty frontier is counted and not kept.

    C itself is never read, so the subtree under a frame depends only on
    ``(N[C], decided)``, shifted by |C|; frames that share that pair are
    merged and expanded once.  A child always has more decided vertices
    than its parent, so the walk sweeps one dict per ``|decided|``, mapping
    each pair to ``[packed, lo, count]`` for the sets C that reach it:
    their sizes packed into one int, slot ``s`` (``_SLOT`` bits wide)
    counting those of size ``lo + s``; the smallest size ``lo``; and their
    number ``count``.  Until the end a tally cell in row ``lo`` holds packed
    sizes in the same way; then each wide cell is spread up its column.

    Raises :class:`CapExceeded` once more than ``CONNECTED_SET_CAP`` sets
    would be drawn.  The count stays exact: each distinct frame adds its
    number of sets times its frontier size before its children are made,
    so the check runs once per distinct frame and fires exactly when the
    graph has more sets than the cap.  No slot holds more than the count,
    so none overflows before the check fires.
    """
    n = len(masks)
    row = n + 1
    w = _SLOT
    drawn = n
    if drawn > CONNECTED_SET_CAP:
        raise _strand_cap()
    tally = [0] * (row * row)
    levels: list = [{} for _ in range(row)]
    for r, nr in enumerate(masks):
        nb = nr | 1 << r
        tally[row + nb.bit_count()] += 1
        if nb >> r + 1:
            levels[r + 1][nb, (2 << r) - 1] = [1, 1, 1]
    for k in range(1, n):
        frames, levels[k] = levels[k], None
        for (nb, decided), (packed, lo, count) in frames.items():
            f = nb & ~decided
            drawn += count * f.bit_count()
            if drawn > CONNECTED_SET_CAP:
                raise _strand_cap()
            lo += 1
            base = lo * row
            j = k
            while f:
                v = f & -f
                f ^= v
                decided |= v
                j += 1
                child = nb | masks[v.bit_length() - 1]
                tally[base + child.bit_count()] += packed
                if child & ~decided:
                    key = child, decided
                    e = levels[j].get(key)
                    if e is None:
                        levels[j][key] = [packed, lo, count]
                    else:
                        gap = lo - e[1]
                        if gap >= 0:
                            e[0] += packed << gap * w
                        else:
                            e[0] = (e[0] << -gap * w) + packed
                            e[1] = lo
                        e[2] += count
    # spill from the top row down, so each spill lands on finished counts
    slot = (1 << w) - 1
    for base in range(n * row, 0, -row):
        if max(tally[base:base + row]) >> w:
            for i in range(base, base + row):
                x = tally[i]
                if x >> w:
                    tally[i] = x & slot
                    while x := x >> w:
                        i += row
                        tally[i] += x & slot
    return tally


def linear_strand_hochster(g: Graph) -> tuple[int, ...]:
    """Linear strand ``beta_{i,i+1}(R/I)`` for i = 1..n-1 from the connected
    induced sets of ``g``.

    On the strand, Hochster's formula counts components of induced
    subgraphs: ``beta_{j-1,j} = sum over j-subsets W of (comp(G[W]) - 1)``.
    A component of G[W] is a connected induced set C with W disjoint from
    N(C), so ``sum_W comp(G[W]) x^|W| = sum_C x^|C| (1+x)^(n-|N[C]|)``.
    The right-hand side reads only the number of sets C of each size and
    closed-neighbourhood size, which :func:`_connected_set_tally` counts
    in one reverse search whose frames merge by ``(N[C], decided)``, so the
    cost follows the number of distinct frames rather than 2^n.  The sum is
    then taken by Horner's rule in (1+x), one tally column per step from
    ``|N[C]| = 0`` up: multiply the running polynomial by (1+x) and add
    the column's counts by size.  That is O(n^2) additions and no
    binomials.  ``graphs.cut_component_sum`` computes the same numbers over
    every subset and is the oracle for this route.

    Raises :class:`CapExceeded` once the graph has more than
    ``CONNECTED_SET_CAP`` connected induced sets; the sets are counted
    exactly, and the count is checked once per distinct frame.  A graph
    on at most 20 vertices has fewer nonempty subsets than the cap, so it
    never raises there.
    """
    n = g.n
    if n < 1:
        raise ValueError("need at least one vertex")
    row = n + 1
    tally = _connected_set_tally(g._masks)
    # after column c, q(x) = sum over C with |N[C]| <= c of
    # x^|C| (1+x)^(c - |N[C]|), of degree at most c since |C| <= |N[C]|,
    # so the shift by one degree drops no term
    q = [0] * row
    for closed in range(row):
        q = [a + b + k for a, b, k in zip(q, [0, *q], tally[closed::row])]
    return tuple(q[j] - comb(n, j) for j in range(2, row))


def betti_from_hvector(h: Sequence[int], n_vars: int, d: int) -> tuple[int, ...]:
    """Total Betti numbers of R/I from the h-vector, assuming I has a
    2-linear resolution, as the ideal of a chordal graph's clique complex
    has (Froberg); resolutions of other degrees are not covered.

    Returns ``out`` with ``out[i] = beta_i(R/I)`` for i = 0..n_vars (see the
    module docstring for the index calibration).  Garbage in, garbage out:
    no linearity check is performed here.
    """
    if n_vars < d:
        raise ValueError("need n_vars >= d")

    # out[i + 1] = (-1)^(i + 1) sum over ell of (-1)^ell C(n_vars - d, ell)
    # h[2 + i - ell], where h and the binomial vanish outside their ranges
    row = [(-1) ** ell * comb(n_vars - d, ell) for ell in range(n_vars - d + 1)]
    out = [1]
    for i in range(n_vars):
        m = 2 + i
        ells = range(max(0, m - len(h) + 1), min(m, n_vars - d) + 1)
        acc = sum(row[ell] * h[m - ell] for ell in ells)
        out.append(acc if i % 2 else -acc)  # the sign (-1)^(i + 1)
    return tuple(out)


def betti_from_bvector(b: Sequence[int], n_vars: int, d: int) -> tuple[int, ...]:
    """Total Betti numbers of R/I directly from the b-vector (2-linear case).

    Evaluates the closed triple sum obtained by expanding the clique vector
    in terms of b and feeding the induced h-vector into the 2-linear Betti
    formula.  The inner clique-count term at j = 0 is the empty-face count
    f_-1 = 1 (the literal binomial sum degenerates to 0 there, which fails
    the path-graph oracle; see the decisions log).
    """
    if len(b) != d:
        raise ValueError("b-vector length must equal d")
    if n_vars < d:
        raise ValueError("need n_vars >= d")

    # c_ext[j] for j = 0..d; the count is 0 past the clique number d
    c_ext = [1, *(
        sum(_comb0(k - 1, k - j) * b[k - 1] for k in range(j, d + 1))
        for j in range(1, d + 1)
    )]

    # the h-vector term of the 2-linear formula at m = 2 + i - ell, which
    # vanishes past m = d since then every C(d - j, m - j) is 0
    inner = [
        sum((-1) ** (m - j) * comb(d - j, m - j) * c_ext[j] for j in range(m + 1))
        for m in range(d + 1)
    ]
    row = [(-1) ** ell * comb(n_vars - d, ell) for ell in range(n_vars - d + 1)]
    out = [1]
    for i in range(n_vars):
        m = 2 + i
        ells = range(max(0, m - d), min(m, n_vars - d) + 1)
        acc = sum(row[ell] * inner[m - ell] for ell in ells)
        out.append(acc if i % 2 else -acc)  # the sign (-1)^(i + 1)
    return tuple(out)


@dataclass(frozen=True)
class HomologicalProfile:
    pd: int
    depth: int
    is_two_linear: bool
    kappa_from_betti: int

    def to_dict(self) -> dict:
        return {
            "pd": self.pd,
            "depth": self.depth,
            "is_two_linear": self.is_two_linear,
            "kappa_from_betti": self.kappa_from_betti,
        }


def homological_profile(table: BettiTable) -> HomologicalProfile:
    """Projective dimension, depth, 2-linearity and the connectivity read
    off the linear strand of a Betti table.

    ``kappa_from_betti`` is the largest k such that the strand vanishes at
    every homological index >= n - k; for a complete graph's complex the
    strand is empty and the value saturates at n.
    """
    n = table.n
    pd = max((i for (i, _) in table.entries), default=0)
    two_linear = all(
        j == i + 1 for (i, j) in table.entries if i >= 1
    )
    strand_max = max(
        (i for (i, j) in table.entries if i >= 1 and j == i + 1), default=0
    )
    kappa = n - strand_max - 1 if strand_max else n
    return HomologicalProfile(
        pd=pd,
        depth=n - pd,
        is_two_linear=two_linear,
        kappa_from_betti=kappa,
    )
