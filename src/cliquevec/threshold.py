"""Threshold graphs as creation words over the alphabet {S, D}.

A word is read left to right: letter k creates vertex k, an ``S`` vertex is
joined to everything already present, a ``D`` vertex is isolated at birth.
Words are canonicalized to start with ``S`` (flipping the first letter never
changes the graph).  Splitting a word right before every ``S`` yields d
subwords (d = number of S letters) and the b-vector reads off as the
subword lengths in reverse order, which makes the word the canonical form of
its b-vector.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .graphs import Graph, _bits, masked_component_count, once_per_graph, vertex_connectivity
from .cliques import dominating_numbers, maximal_cliques

__all__ = [
    "normalize_word",
    "graph_from_word",
    "recognize_threshold",
    "threshold_labeling",
    "bvector_from_word",
    "word_from_bvector",
    "shifted_vertex_order",
    "ThresholdProfile",
    "ProfileMismatch",
    "threshold_profile",
    "random_word",
]

_WORD_RE = re.compile(r"[SD]+")


def normalize_word(word: str) -> str:
    """Validate and canonicalize a creation word.

    Case-insensitive; must be a nonempty string over {S, D}.  The first
    letter is forced to ``S``.
    """
    w = word.strip().upper()
    if not w or not _WORD_RE.fullmatch(w):
        raise ValueError(f"not a word over {{S, D}}: {word!r}")
    return "S" + w[1:]


def graph_from_word(word: str) -> Graph:
    """Build the threshold graph of a creation word (vertex k = letter k)."""
    w = normalize_word(word)
    edges = []
    for k, letter in enumerate(w):
        if letter == "S":
            edges.extend((j, k) for j in range(k))
    return Graph(len(w), edges)


@once_per_graph
def _peel(g: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Degree peeling.  Returns ``(word, labels)`` or None if not threshold.

    ``labels[p]`` is the input vertex playing word position p.  At each step
    a dominating vertex is preferred over an isolated one and ties go to the
    largest id, so peeling a graph built by :func:`graph_from_word` removes
    vertices in reverse creation order and reproduces the word exactly.
    Kept on the graph, so recognizing and labelling one graph peel it once.
    """
    masks = g._masks
    alive = (1 << g.n) - 1
    letters: list[str] = []
    removal: list[int] = []
    while alive:
        deg = {v: (masks[v] & alive).bit_count() for v in _bits(alive)}
        dominating = [v for v, k in deg.items() if k == len(deg) - 1]
        if dominating:
            v = max(dominating)
            letters.append("S")
        else:
            isolated = [v for v, k in deg.items() if k == 0]
            if not isolated:
                return None
            v = max(isolated)
            letters.append("D")
        alive ^= 1 << v
        removal.append(v)
    word = "".join(reversed(letters))
    labels = tuple(reversed(removal))
    return word, labels


def recognize_threshold(g: Graph) -> str | None:
    """Canonical creation word of ``g``, or None if ``g`` is not threshold."""
    if g.n == 0:
        return None
    res = _peel(g)
    return None if res is None else res[0]


def threshold_labeling(g: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Like :func:`recognize_threshold` but also returns the vertex playing
    each word position, certifying the isomorphism."""
    if g.n == 0:
        return None
    return _peel(g)


def _subwords(word: str) -> list[str]:
    """Split right before every S; the word starts with S so every chunk
    starts with S and contains exactly one S."""
    parts = []
    start = 0
    for k in range(1, len(word)):
        if word[k] == "S":
            parts.append(word[start:k])
            start = k
    parts.append(word[start:])
    return parts


def bvector_from_word(word: str) -> tuple[int, ...]:
    """b-vector by the subword rule: ``b_i`` is the length of the
    ``(d - i + 1)``-th subword."""
    w = normalize_word(word)
    parts = _subwords(w)
    d = len(parts)
    return tuple(len(parts[d - i]) for i in range(1, d + 1))


def word_from_bvector(b) -> str:
    """Inverse of the subword rule; requires every entry positive."""
    if not b:
        raise ValueError("empty b-vector")
    if any(x < 1 for x in b):
        raise ValueError(f"threshold b-vectors have positive entries, got {tuple(b)}")
    d = len(b)
    return "".join("S" + "D" * (b[i - 1] - 1) for i in range(d, 0, -1))


def shifted_vertex_order(word: str) -> tuple[int, ...]:
    """Vertex order (ascending rank) under which the clique complex of the
    word's graph is shifted.

    Larger rank must mean a more dominant vertex, and in a creation word the
    dominance order is: D vertices by decreasing position, then S vertices
    by increasing position.  (Plain insertion order, either way round, does
    not work for all words: SDS needs the last S on top while SSD needs the
    trailing D at the bottom.)
    """
    w = normalize_word(word)
    d_positions = [k for k, c in enumerate(w) if c == "D"]
    s_positions = [k for k, c in enumerate(w) if c == "S"]
    return tuple(reversed(d_positions)) + tuple(s_positions)


@dataclass(frozen=True)
class ThresholdProfile:
    """Closed-form invariants read off a creation word.

    ``maximal_cliques_by_size[i]`` lists the maximal i-cliques and
    ``nested_clique[i]`` is the i-clique made of the last i S-vertices (the
    one that, together with the maximal i-cliques, forms the unique minimum
    dominating family, so ``dominating_numbers[i-1] == b_vector[i-1]``).
    """

    word: str
    n: int
    clique_number: int
    kappa: int
    minimum_cut: frozenset[int]
    b_vector: tuple[int, ...]
    maximal_cliques_by_size: dict[int, tuple[frozenset[int], ...]]
    nested_clique: dict[int, frozenset[int]]
    dominating_numbers: tuple[int, ...]
    components_after_cut: int


class ProfileMismatch(RuntimeError):
    """A closed-form word invariant disagreed with graph-level brute force."""


def threshold_profile(word: str, verify: bool = True) -> ThresholdProfile:
    """Compute the word's structural profile; with ``verify=True`` every
    field is cross-checked against brute force on the built graph and a
    mismatch raises :class:`ProfileMismatch`.

    The graph must not be complete (the word needs at least one D).
    """
    w = normalize_word(word)
    if "D" not in w:
        raise ValueError("profile requires a non-complete graph (no D in word)")
    n = len(w)
    b = bvector_from_word(w)
    d = len(b)

    kappa = 0
    for c in reversed(w):
        if c != "S":
            break
        kappa += 1
    min_cut = frozenset(range(n - kappa, n))

    s_positions = [k for k, c in enumerate(w) if c == "S"]
    nested = {i: frozenset(s_positions[d - i :]) for i in range(1, d + 1)}

    parts = _subwords(w)
    # Letter offsets of each subword within the word.
    offsets = []
    pos = 0
    for part in parts:
        offsets.append(pos)
        pos += len(part)
    by_size: dict[int, tuple[frozenset[int], ...]] = {}
    for i in range(1, d + 1):
        if i <= kappa:
            by_size[i] = ()
            continue
        idx = d - i  # 0-based index of the (d-i+1)-th subword
        part, off = parts[idx], offsets[idx]
        base = nested[i - 1] if i > 1 else frozenset()
        if i < d:
            members = [off + j for j, c in enumerate(part) if c == "D"]
        else:
            # The first letter is an S by convention only; it behaves like
            # the D letters of its subword, so every letter contributes.
            members = [off + j for j in range(len(part))]
        by_size[i] = tuple(frozenset({v}) | base for v in sorted(members))

    d_values = tuple(b)
    components_after_cut = b[kappa] if kappa < d else 1

    profile = ThresholdProfile(
        word=w,
        n=n,
        clique_number=d,
        kappa=kappa,
        minimum_cut=min_cut,
        b_vector=b,
        maximal_cliques_by_size=by_size,
        nested_clique=nested,
        dominating_numbers=d_values,
        components_after_cut=components_after_cut,
    )
    if verify:
        _verify_profile(profile)
    return profile


def _verify_profile(p: ThresholdProfile) -> None:
    g = graph_from_word(p.word)
    masks = g._masks
    full = (1 << g.n) - 1

    if recognize_threshold(g) != p.word:
        raise ProfileMismatch("word does not round-trip through recognition")

    kappa = vertex_connectivity(g)
    if kappa != p.kappa:
        raise ProfileMismatch(f"kappa: word says {p.kappa}, graph says {kappa}")

    cut_mask = 0
    for v in p.minimum_cut:
        cut_mask |= 1 << v
    w_after = masked_component_count(masks, full & ~cut_mask)
    if w_after != p.components_after_cut:
        raise ProfileMismatch(
            f"components after minimum cut: expected {p.components_after_cut}, got {w_after}"
        )
    if kappa >= 1:
        # The minimum cut must disconnect and be the unique one of its size.
        from itertools import combinations

        cuts = []
        for sub in combinations(range(g.n), kappa):
            m = 0
            for v in sub:
                m |= 1 << v
            if masked_component_count(masks, full & ~m) > 1:
                cuts.append(m)
        if cuts != [cut_mask]:
            raise ProfileMismatch(
                f"minimum {kappa}-cuts are {cuts}, expected exactly {cut_mask}"
            )

    expected = [c for i in sorted(p.maximal_cliques_by_size) for c in p.maximal_cliques_by_size[i]]
    # Sizes below kappa+1 have no maximal cliques, so `expected` is complete.
    if sorted(expected, key=sorted) != maximal_cliques(g):
        raise ProfileMismatch("maximal clique lists differ from brute force")

    # Equal maximal-clique lists give equal clique numbers, so the two
    # d-vectors have the same length.
    d_values = dominating_numbers(g)
    for i, di in enumerate(d_values, start=1):
        if di != p.dominating_numbers[i - 1]:
            raise ProfileMismatch(
                f"d_{i}: word says {p.dominating_numbers[i - 1]}, brute force says {di}"
            )


def random_word(length: int, seed: int) -> str:
    """Uniform creation word of the given length starting with S."""
    if length < 1:
        raise ValueError("length must be positive")
    rng = random.Random(seed)
    return "S" + "".join(rng.choice("SD") for _ in range(length - 1))
