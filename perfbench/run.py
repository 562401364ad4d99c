"""cliquevec benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Items run back to back in this process with ``jobs=1``, so no process pool
is used.  Every output is checked by an independent oracle outside the
timed calls.  Times are in reference seconds (see ``calibrate.py``).  The
last line of stdout is one JSON object:

* ``--trace 0``: throughput, item latency (p50 and tail), set-up time and
  peak RSS, measured with tracing off.
* ``--trace 1``: each item runs untraced and then traced, with every layer
  function wrapped (see ``tracer.py``); the traced calls give calls, self
  time and share per layer, and the two passes give the tracing overhead.

Run details (provenance, raw times, tail percentile) go to
``perfbench/out/<workload>-trace<0|1>.json``; spans of a traced run go to
``perfbench/out/<workload>-spans.tsv``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
from tracer import Tracer
from workloads import WORKLOADS, Item, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = "cliquevec"

LAYERS = [
    "graphs.is_chordal",
    "graphs.vertex_connectivity",
    "graphs.cut_component_sum",
    "peo.special_peo",
    "cliques.clique_vector",
    "cliques.maximal_cliques",
    "cliques.kappa_tilde",
    "cliques.cliques_of_size",
    "cliques.dominating_number",
    "cliques._min_cover",
    "threshold.recognize_threshold",
    "threshold.threshold_profile",
    "shifting.alpha_shift",
    "shifting.clique_bijection_check",
    "complexes.clique_complex",
    "complexes.is_matroid",
    "complexes.is_shifted",
    "betti.full_betti_hochster",
    "betti._hochster_scan",
    "betti._homology_dims",
    "betti._int_rank",
    "betti._faces_by_dim",
    "betti.linear_strand_hochster",
    "verify.evaluate_graph",
]
SETUP_REPEATS = 5
SMOKE_ITEMS = 3
# Seconds of timed calls between oracle passes and calibration samples.
WINDOW_S = 0.5


@dataclass
class Lib:
    """The imported library, looked up at call time so tracing applies."""

    Graph: type
    verify: object
    cli: object
    path: str


def load_library() -> Lib:
    """Import cliquevec afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    return Lib(
        Graph=pkg.Graph,
        verify=importlib.import_module(PACKAGE + ".verify"),
        cli=importlib.import_module(PACKAGE + ".cli"),
        path=str(Path(pkg.__file__).resolve().parent),
    )


def set_up(wl: Workload, seed: int, repeats: int) -> tuple[Lib, list[float]]:
    """Import, make the warm-up inputs and run them; ``repeats`` times."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        lib = load_library()
        for item in wl.warmup(random.Random(seed)):
            wl.run(lib, item)
        times.append(perf_counter() - t0)
    return lib, times


class Loop:
    """Closed loop over items: times each call, keeps its output until the
    next :meth:`check` runs the oracle on it."""

    def __init__(self, lib: Lib, wl: Workload, cal: Calibration):
        self.lib, self.wl, self.cal = lib, wl, cal
        self.times: list[float] = []
        self.windows: list[int] = []
        self.busy = 0.0  # raw seconds inside timed calls
        self.pending: list[tuple[Item, object]] = []
        self.failed = 0

    def run_item(self, item: Item, tracer: Tracer | None = None):
        """Time one call and return its output (None if it raised)."""
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.wl.run(self.lib, item)
            else:
                out = tracer.item(item.id, self.wl.run, self.lib, item)
        except Exception:
            out = None
            self._fail(item, ["raised:\n" + traceback.format_exc()])
        self.times.append(perf_counter() - t0)
        self.windows.append(self.cal.window)
        self.busy += self.times[-1]
        if out is not None:
            self.pending.append((item, out))
        return out

    def check(self) -> None:
        """Run the oracle on every output made since the last check."""
        for item, out in self.pending:
            try:
                problems = self.wl.check(item, out)
            except Exception:
                problems = ["output not understood:\n" + traceback.format_exc()]
            if problems:
                self._fail(item, problems)
        self.pending.clear()

    def _fail(self, item: Item, problems: list[str]) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"item {item.id} failed: {'; '.join(problems)}", file=sys.stderr)

    def scaled(self) -> list[float]:
        """Item times in reference seconds."""
        return [t * self.cal.factor(w) for t, w in zip(self.times, self.windows)]


def stream(wl: Workload, seed: int):
    rng = random.Random(seed)
    i = 0
    while True:
        yield wl.make(rng, i)
        i += 1


def percentile(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many items lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def git_state() -> tuple[str | None, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str | None:
        try:
            res = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout if res.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return (sha.strip() if sha else None), (None if status is None else bool(status.strip()))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency(times: list[float], tail_pct: float) -> dict:
    return {
        "throughput_per_s": len(times) / sum(times),
        "item_ms.p50": statistics.median(times) * 1e3,
        "item_ms.tail": percentile(times, tail_pct)[0] * 1e3,
    }


def end_to_end(loop: Loop, setup_s: float) -> dict:
    units = {"throughput_per_s": "1/s", "item_ms.p50": "ms", "item_ms.tail": "ms"}
    metrics = {
        k: metric(v, units[k]) for k, v in latency(loop.scaled(), loop.wl.tail_pct).items()
    }
    metrics["setup_s"] = metric(setup_s, "s")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
    )
    return metrics


def per_layer(tracer: Tracer, traced: Loop, untraced: Loop) -> dict:
    n_items = len(traced.times)
    wall = traced.busy
    scale = sum(traced.scaled()) / wall  # reference seconds per raw second
    totals = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        calls, self_s = totals[layer]
        metrics[f"{layer}.calls_per_item"] = metric(calls / n_items, "count")
        metrics[f"{layer}.self_ms_per_item"] = metric(self_s * scale * 1e3 / n_items, "ms")
        metrics[f"{layer}.share"] = metric(self_s / wall, "ratio")
    subsets = tracer.counts.get("betti.full_betti_hochster", 0)
    homology = totals["betti._homology_dims"][0]
    metrics["betti.homology_calls_per_subset"] = metric(
        homology / subsets if subsets else 0.0, "ratio"
    )
    metrics["trace_overhead_ratio"] = metric(wall / untraced.busy, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=f"{SMOKE_ITEMS} items, one set-up")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Import cliquevec from source on every set-up: bytecode caches are
    # neither read nor written, so set-up time does not depend on whether an
    # earlier run or tool left them behind.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(OUT / "no-bytecode")  # never created

    wl = WORKLOADS[args.workload]
    cal = Calibration()
    cal.sample()
    lib, setup_times = set_up(wl, args.seed, 1 if args.smoke else SETUP_REPEATS)
    cal.sample()
    if args.smoke:
        limit, budget = SMOKE_ITEMS, math.inf
    else:
        limit, budget = math.inf, args.seconds / (2 if args.trace else 1)

    # Objects alive now (the benchmark, networkx) are not the library's:
    # keep them out of the collector's work during the timed calls.
    gc.collect()
    gc.freeze()
    loop = Loop(lib, wl, cal)
    loops = [loop]
    # Traced runs time each item twice, untraced then traced, back to back,
    # so that both calls see the same machine state.
    tracer = traced = None
    mismatched = 0
    if args.trace:
        tracer = Tracer(PACKAGE, LAYERS, counters={"betti.full_betti_hochster": _subsets})
        traced = Loop(lib, wl, cal)
        loops.append(traced)
    window_end = WINDOW_S
    for item in stream(wl, args.seed):
        if loop.busy >= budget or len(loop.times) >= limit:
            break
        out = loop.run_item(item)
        if tracer is not None:
            tracer.install()
            try:
                mismatched += traced.run_item(item, tracer) != out
            finally:
                tracer.uninstall()
        # Oracles and calibration run between windows, so the library's
        # caches stay warm from one timed call to the next.
        if loop.busy >= window_end:
            window_end = loop.busy + WINDOW_S
            for lp in loops:
                lp.check()
            cal.sample()
    for lp in loops:
        lp.check()
    cal.sample()

    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cliquevec_path": lib.path,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": cal.samples,
    }
    detail["git_sha"], detail["git_dirty"] = git_state()
    OUT.mkdir(exist_ok=True)
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops) + mismatched
    if tracer is not None:
        if mismatched:
            print(f"{mismatched} outputs differ with tracing on", file=sys.stderr)
        metrics = per_layer(tracer, traced, loop)
        tracer.write(OUT / f"{wl.name}-spans.tsv")
        detail.update(absent_layers=tracer.absent, spans=tracer.span_count())
    else:
        setup_raw = statistics.median(setup_times)
        metrics = end_to_end(loop, setup_raw * cal.factor(0))
        detail.update(
            tail_percentile=wl.tail_pct,
            items=len(loop.times),
            items_beyond_tail=percentile(loop.times, wl.tail_pct)[1],
            raw=latency(loop.times, wl.tail_pct) | {"setup_s": setup_raw},
            setup_runs_s=setup_times,
        )

    detail["metrics"] = metrics
    (OUT / f"{wl.name}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    report(detail, attempted, failed)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def _subsets(args, kwargs) -> int:
    """Vertex subsets a Hochster scan visits: 2^n for the complex's n."""
    cx = args[0] if args else kwargs["cx"]
    return 1 << cx.n


def report(detail: dict, attempted: int, failed: int) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']}"
          f" sha={detail['git_sha']} dirty={detail['git_dirty']} python={detail['python']}"
          f" nproc={detail['nproc']} cliquevec={detail['cliquevec_path']}")
    metrics = detail["metrics"]
    if detail["trace"]:
        rows = sorted(
            (k for k in metrics if k.endswith(".share")), key=lambda k: -metrics[k]["value"]
        )
        for k in rows:
            layer = k[: -len(".share")]
            print(f"{layer:34s} share {metrics[k]['value']:.3f}"
                  f"  calls/item {metrics[layer + '.calls_per_item']['value']:.2f}"
                  f"  self ms/item {metrics[layer + '.self_ms_per_item']['value']:.3f}")
        for k in ("betti.homology_calls_per_subset", "trace_overhead_ratio"):
            print(f"{k:34s} {metrics[k]['value']:.4f}")
        if detail["absent_layers"]:
            print(f"absent layers (reported as 0): {', '.join(detail['absent_layers'])}")
    else:
        for k, m in metrics.items():
            raw = detail["raw"].get(k)
            print(f"{k:18s} {m['value']:.6g} {m['unit']}"
                  + ("" if raw is None else f"  (raw {raw:.6g})"))
        print(f"{'item_ms.tail':18s} is p{detail['tail_percentile']:g} of {detail['items']} items"
              f" ({detail['items_beyond_tail']} beyond it)")
    cal = detail["calibration_s"]
    print(f"{'calibration':18s} median {statistics.median(cal) * 1e3:.2f} ms over {len(cal)} samples")
    print(f"{'failed_ratio':18s} {failed / attempted:.6g} ({failed}/{attempted})")


if __name__ == "__main__":
    sys.exit(main())
