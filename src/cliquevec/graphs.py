"""Core graph type and the structural primitives everything else consumes.

Vertices are always the integers ``0..n-1``.  A :class:`Graph` is immutable
once constructed and stores its adjacency only as one integer bitmask per
vertex; neighbour sets and edge lists are views derived from the masks on
demand.  The bitmasks are what make the subset-heavy computations
(connectivity, cut-component sums, clique search) fast enough to
brute-force at desk scale, which is the design point of this library:
every quantity is exact and small instances are enumerated rather than
approximated.
"""

from __future__ import annotations

import functools
import random
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .peo import Peo, is_valid_peo

__all__ = [
    "Graph",
    "GraphFormatError",
    "components",
    "is_chordal",
    "vertex_connectivity",
    "cut_component_sum",
    "random_chordal",
    "chordal_with_connectivities",
    "parse_graph",
    "format_graph",
    "once_per_graph",
]


class GraphFormatError(ValueError):
    """Malformed graph (or complex) text input."""


class Graph:
    """Simple undirected graph on the vertex set ``{0, ..., n-1}``.

    No self-loops; adjacency is kept symmetric by construction.  ``_masks[v]``
    has bit u set exactly when u and v are adjacent; it is the only stored
    form of the adjacency.  Instances are immutable (and hashable), so all
    operations in this package are pure functions that are safe to call
    concurrently.

    ``_memo`` keeps the values of the :func:`once_per_graph` functions (the
    chordality witness, the clique vector, the maximal cliques, the cliques
    by size), keyed by function, so each is derived once per graph however
    many callers need it.  Every kept value is immutable, and the memo takes
    no part in equality or hashing.  Concurrent calls stay safe: two calls
    that miss at once each compute the same value, and either store wins.
    """

    __slots__ = ("n", "_masks", "_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph instances are immutable")

    def __reduce__(self):
        # rebuilt from (n, edges), so a copy or an unpickled graph starts
        # with an empty memo
        return type(self), (self.n, self.edges())

    # -- basic accessors -------------------------------------------------

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._masks[v]))

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def mask(self, v: int) -> int:
        return self._masks[v]

    def has_edge(self, u: int, v: int) -> bool:
        """False when either end lies outside ``0..n-1``."""
        return 0 <= u < len(self._masks) and v >= 0 and self._masks[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted ``(u, v)`` pairs with ``u < v``."""
        # each u with its neighbours above u
        return [(u, v) for u, m in enumerate(self._masks) for v in _bits(m >> (u + 1) << (u + 1))]

    @property
    def m(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- small constructors ----------------------------------------------

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, combinations(range(n), 2))


def once_per_graph(fn):
    """Decorator: compute ``fn(g)`` once per :class:`Graph` and keep it in
    ``g._memo``.  ``fn`` must return an immutable value, because every later
    call returns that same object; an exception is not kept."""

    @functools.wraps(fn)
    def memoized(g: Graph):
        try:
            return g._memo[fn]
        except KeyError:
            value = g._memo[fn] = fn(g)
            return value

    return memoized


def _bits(mask: int) -> list[int]:
    """The vertices whose bits are set in ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


def masked_component_count(masks: Sequence[int], avail: int) -> int:
    """Number of connected components of the subgraph induced on the
    vertices whose bits are set in ``avail``.  Returns 0 for ``avail == 0``."""
    count = 0
    while avail:
        count += 1
        start = avail & -avail
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            t = frontier
            while t:
                b = t & -t
                t ^= b
                nxt |= masks[b.bit_length() - 1]
            frontier = nxt & avail & ~comp
            comp |= frontier
        avail &= ~comp
    return count


def clique_walk(masks: Sequence[int], cand: int, cap: int) -> Iterator[int]:
    """Each nonempty clique inside the vertex mask ``cand`` with at most
    ``cap`` vertices, exactly once, as a bitmask.

    Ordered extension: a clique grows only by candidates above its last
    vertex that are adjacent to all of it.  The order is depth-first
    preorder, lowest vertex first, so the cliques of each size come out in
    lexicographic order.  The walk runs on an explicit stack of
    ``(clique, candidates, size)`` frames, so its depth is not bounded by
    the recursion limit.
    """
    if not cand or cap < 1:
        return
    stack = [(0, cand, 0)]
    while stack:
        base, t, size = stack.pop()
        b = t & -t
        t ^= b
        if t:
            stack.append((base, t, size))
        clique = base | b
        yield clique
        size += 1
        if size < cap:
            t &= masks[b.bit_length() - 1]
            if t:
                stack.append((clique, t, size))


def components(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Connected components of ``g``.

    Returns ``(count, labels)`` where ``labels[v]`` is the component id of
    ``v``.  Ids are assigned in increasing order of the smallest vertex of
    each component, so the labeling is canonical.  ``n == 0`` gives
    ``(0, ())``.
    """
    labels = [-1] * g.n
    masks = g._masks
    count = 0
    for s in range(g.n):
        if labels[s] >= 0:
            continue
        comp = 1 << s
        frontier = comp
        while frontier:
            nxt = 0
            t = frontier
            while t:
                b = t & -t
                t ^= b
                nxt |= masks[b.bit_length() - 1]
            frontier = nxt & ~comp
            comp |= frontier
        t = comp
        while t:
            b = t & -t
            t ^= b
            labels[b.bit_length() - 1] = count
        count += 1
    return count, tuple(labels)


def _max_cardinality_search(masks: Sequence[int]) -> list[int]:
    """Maximum cardinality search over the graph with adjacency bitmasks
    ``masks``, smaller ids first on ties; returns the reverse visit order
    (position 0 is eliminated first).  The unvisited vertices are bucketed
    by weight, one bitmask per bucket (Tarjan & Yannakakis 1984)."""
    n = len(masks)
    weight = [0] * n
    bucket = [0] * (n + 1)  # bucket[w]: the unvisited vertices of weight w
    bucket[0] = unvisited = (1 << n) - 1
    top = 0
    visit: list[int] = []
    for _ in range(n):
        top += 1  # one visit raises each weight by at most one
        while not bucket[top]:
            top -= 1
        b = bucket[top] & -bucket[top]
        bucket[top] ^= b
        unvisited ^= b
        v = b.bit_length() - 1
        visit.append(v)
        for u in _bits(masks[v] & unvisited):
            bucket[weight[u]] ^= 1 << u
            weight[u] += 1
            bucket[weight[u]] |= 1 << u
    return visit[::-1]


@once_per_graph
def _search_order(g: Graph) -> tuple[int, ...]:
    """The maximum cardinality search order of ``g``, which
    :func:`is_chordal` and the Hochster table share."""
    return tuple(_max_cardinality_search(g._masks))


@once_per_graph
def is_chordal(g: Graph) -> tuple[bool, Peo | None]:
    """Chordality test with a perfect elimination ordering as witness.

    Runs maximum cardinality search and checks the resulting order with
    :func:`~cliquevec.peo.is_valid_peo`; the graph is chordal iff the check
    passes, in which case the order is returned as a :class:`Peo` (position
    0 is eliminated first).  Ties in the search are broken toward smaller
    vertex ids, so the witness is deterministic.
    """
    order = _search_order(g)
    if not is_valid_peo(g, order):
        return False, None
    return True, Peo(order)


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity by brute force over vertex subsets.

    Complete graphs use the ``n - 1`` convention; disconnected graphs give 0.
    Intended for desk-scale instances (n <= ~20), where exactness matters
    more than asymptotics.
    """
    n = g.n
    if n == 0:
        raise ValueError("connectivity undefined for the empty graph")
    if n == 1:
        return 0
    masks = g._masks
    full = (1 << n) - 1
    if masked_component_count(masks, full) > 1:
        return 0
    if g.is_complete():
        return n - 1
    for k in range(1, n - 1):
        for cut in combinations(range(n), k):
            avail = full
            for v in cut:
                avail ^= 1 << v
            if masked_component_count(masks, avail) > 1:
                return k
    # Unreachable: a non-complete graph has a vertex-cut of size <= n-2.
    return n - 1


def cut_component_sum(g: Graph, k: int) -> int:
    """Sum over all k-subsets ``Y`` of ``max(W(G - Y) - 1, 0)``.

    ``W`` is the number of connected components after deleting ``Y``; subsets
    that do not disconnect contribute 0, as does deleting every vertex.  The
    sum is exact (Python integers).
    """
    n = g.n
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    masks = g._masks
    full = (1 << n) - 1
    total = 0
    for cut in combinations([1 << v for v in range(n)], k):
        c = masked_component_count(masks, full - sum(cut))
        if c > 1:
            total += c - 1
    return total


def _is_simplicial_masked(masks: Sequence[int], v: int, active: int) -> bool:
    nb = masks[v] & active
    t = nb
    while t:
        b = t & -t
        t ^= b
        if nb & ~masks[b.bit_length() - 1] & ~b:
            return False
    return True


def random_chordal(n: int, attach_width: int, seed: int) -> Graph:
    """Random chordal graph: each new vertex attaches to a uniformly chosen
    clique (size <= attach_width, possibly empty) of the current graph.

    The reverse insertion order is a PEO by construction, so the result is
    always chordal.  Deterministic for a fixed ``(n, attach_width, seed)``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= attach_width <= n:
        raise ValueError("attach_width must be in 1..n")
    rng = random.Random(seed)
    masks = [0] * n
    for v in range(1, n):
        cliques = [0, *clique_walk(masks, (1 << v) - 1, attach_width)]
        masks[v] = cliques[rng.randrange(len(cliques))]
        for u in range(v):
            if masks[v] >> u & 1:
                masks[u] |= 1 << v
    return Graph(n, [(u, v) for v in range(n) for u in range(v) if masks[v] >> u & 1])


def chordal_with_connectivities(kappa: int, ktilde: int) -> Graph:
    """Chordal graph with vertex connectivity ``kappa`` and maximum
    maximal-clique intersection ``ktilde`` (requires ``kappa <= ktilde``).

    Layout: a clique on vertices ``0..2*ktilde-1`` plus three extra vertices
    ``a = 2*ktilde`` adjacent to the first ``kappa`` clique vertices,
    ``b = a+1`` adjacent to the first ``ktilde``, and ``c = a+2`` adjacent to
    the last ``ktilde``.  On this family the dominating-number bounds of the
    b-vector are tight, which makes it the standard stress fixture for the
    verification harness.
    """
    if not 1 <= kappa <= ktilde:
        raise ValueError("need 1 <= kappa <= ktilde")
    t = ktilde
    a, b, c = 2 * t, 2 * t + 1, 2 * t + 2
    edges = list(combinations(range(2 * t), 2))
    edges += [(x, a) for x in range(kappa)]
    edges += [(x, b) for x in range(t)]
    edges += [(x, c) for x in range(t, 2 * t)]
    return Graph(2 * t + 3, edges)


# -- shared text format -------------------------------------------------
#
# UTF-8 lines; '#' starts a comment; first data line "n m"; then m lines
# "u v" with 0 <= u < v < n.  Duplicate edges and self-loops are rejected,
# and so is a header n above MAX_PARSED_VERTICES, before any allocation.

MAX_PARSED_VERTICES = 1 << 16


def _data_lines(text: str) -> Iterator[str]:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_graph(text: str) -> Graph:
    lines = list(_data_lines(text))
    if not lines:
        raise GraphFormatError("no data lines")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be nonnegative")
    if n > MAX_PARSED_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds limit {MAX_PARSED_VERTICES}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    seen: set[tuple[int, int]] = set()
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {line!r}") from exc
        if not 0 <= u < v < n:
            raise GraphFormatError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
