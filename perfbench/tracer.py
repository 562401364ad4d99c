"""Outside-in span tracer for the cliquevec layers.

The library modules import each other's functions by name
(``from .graphs import is_chordal``), so a function has one binding per
importing module.  :meth:`Tracer.install` replaces every binding of each
traced function, in every loaded ``cliquevec`` module, with a wrapper that
records a span; :meth:`Tracer.uninstall` puts the originals back.  Nothing
in the library is edited.

A span is (name, start, end, parent, item).  Spans are kept in flat arrays
in memory, so that millions of them stay cheap, and written out once at the
end of a run.  A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

ROOT_SPAN = "item"


def _call(fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self, package: str, layers: list[str], counters=None):
        """``layers`` are ``"module.function"`` names relative to ``package``.

        ``counters`` maps a layer to ``f(args, kwargs) -> int``; each call
        of that layer adds ``f``'s value to ``counts[layer]``.
        """
        self.package = package
        self.layers = list(layers)
        self.counters = dict(counters or {})
        self.names = [ROOT_SPAN, *self.layers]
        self.absent: list[str] = []
        self._bindings: list[tuple] | None = None
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.items = array("q")
        self._stack = [-1]
        self._item = -1
        self.counts: dict[str, int] = {}
        self._root = self._wrap(_call, 0)

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name_id: int, counter=None):
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, items, stack = self.parents, self.items, self._stack
        tracer = self
        name = self.names[name_id]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + counter(args, kwargs)
            i = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            items.append(tracer._item)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def item(self, item_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of item ``item_id``."""
        self._item = item_id
        return self._root(fn, *args)

    def install(self) -> None:
        """Wrap every binding of every traced layer function.

        The bindings are found on the first call; spans accumulate across
        install/uninstall pairs.
        """
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings or ():
            setattr(mod, attr, original)

    def _find_bindings(self) -> list[tuple]:
        prefix = self.package + "."
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]
        bindings = []
        for name_id, layer in enumerate(self.layers, start=1):
            mod_name, _, fn_name = layer.rpartition(".")
            original = getattr(sys.modules.get(prefix + mod_name), fn_name, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(original, name_id, self.counters.get(layer))
            for mod in modules:
                bindings += [
                    (mod, attr, original, wrapper)
                    for attr, value in vars(mod).items()
                    if value is original
                ]
        return bindings

    # -- results ---------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name_ids)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``{layer: (calls, self_seconds)}`` for every traced layer."""
        n = len(self.name_ids)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_ids[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """One span per line: id, name, item, parent, start_us, end_us."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\titem\tparent\tstart_us\tend_us\n")
            out.writelines(
                f"{i}\t{names[k]}\t{it}\t{p}\t{(s - t0) * 1e6:.3f}\t{(e - t0) * 1e6:.3f}\n"
                for i, (k, it, p, s, e) in enumerate(
                    zip(self.name_ids, self.items, self.parents, self.starts, self.ends)
                )
            )
