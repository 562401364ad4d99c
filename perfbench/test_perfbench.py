"""Self-tests of the benchmark: the tracer is transparent and complete, the
oracles catch corrupted outputs, and every workload runs in smoke mode.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cliquevec  # noqa: E402
import cliquevec.cli  # noqa: E402
from cliquevec import cliques, graphs, shifting, verify  # noqa: E402

import run  # noqa: E402
from calibrate import REFERENCE_S, Calibration  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Item, k_polynomial  # noqa: E402


class _Lib:
    Graph = cliquevec.Graph
    verify = verify
    cli = cliquevec.cli


def _items(name: str, count: int, seed: int = 7) -> list[Item]:
    rng = random.Random(seed)
    return [WORKLOADS[name].make(rng, i) for i in range(count)]


def test_generator_reproduces_the_gate_distribution():
    rng_lib, rng_bench = random.Random(3), random.Random(3)
    for i in range(200):
        g = verify.random_instance(12, rng_lib)
        item = WORKLOADS["verify"].make(rng_bench, i)
        assert cliquevec.Graph(item.n, item.edges) == g


def test_tracing_is_transparent():
    wl = WORKLOADS["verify"]
    items = _items("verify", 60)
    plain = [wl.run(_Lib, it) for it in items]
    tracer = Tracer("cliquevec", run.LAYERS)
    tracer.install()
    try:
        traced = [tracer.item(it.id, wl.run, _Lib, it) for it in items]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert verify.is_chordal is graphs.is_chordal
    assert cliques.maximal_cliques is shifting.maximal_cliques


def test_tracer_wraps_every_binding_and_accounts_for_all_time():
    original = graphs.is_chordal
    tracer = Tracer("cliquevec", run.LAYERS)
    tracer.install()
    try:
        assert graphs.is_chordal is not original
        for name in ("cliques", "shifting", "verify", "cli"):
            assert sys.modules[f"cliquevec.{name}"].is_chordal is graphs.is_chordal
        items = _items("verify", 40)
        for it in items:
            tracer.item(it.id, WORKLOADS["verify"].run, _Lib, it)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    # Calls made from cliques, shifting and verify all land on is_chordal.
    assert totals["graphs.is_chordal"][0] > 10 * len(items)
    assert totals["verify.evaluate_graph"][0] == len(items)
    roots = [
        tracer.ends[i] - tracer.starts[i]
        for i in range(tracer.span_count())
        if tracer.parents[i] == -1
    ]
    assert len(roots) == len(items)
    self_total = sum(s for _, s in totals.values())
    assert self_total == pytest.approx(sum(roots), rel=1e-9)


def test_absent_helper_is_reported_not_fatal():
    tracer = Tracer("cliquevec", ["betti._no_such_helper", "graphs.is_chordal"])
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["betti._no_such_helper"]
    assert tracer.layer_totals()["betti._no_such_helper"] == (0, 0.0)


def test_k_polynomial_of_a_path():
    # P3: faces {}, 3 vertices, 2 edges; R/I = k[x0,x1,x2]/(x0 x2).
    assert k_polynomial(3, [3, 2]) == [1, 0, -1, 0]


def _corrupt_verify(out: str) -> str:
    rep = json.loads(out)
    rep["stats"]["c_vector"][0] = str(int(rep["stats"]["c_vector"][0]) + 1)
    return json.dumps(rep, sort_keys=True)


def _corrupt_table(out):
    rc, text = out
    obj = json.loads(text)
    obj["results"]["hochster"]["entries"][-1][2] = str(
        int(obj["results"]["hochster"]["entries"][-1][2]) + 1
    )
    return rc, json.dumps(obj)


def _corrupt_strand(out):
    rc, text = out
    obj = json.loads(text)
    obj["results"]["strand"][0] = str(int(obj["results"]["strand"][0]) + 1)
    return rc, json.dumps(obj)


def _exit_code(out):
    return 4, ""


def _raise(out):
    raise RuntimeError("library raised")


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("verify", _corrupt_verify),
        ("verify", _raise),
        ("betti_chordal", _corrupt_table),
        ("betti_chordal", _exit_code),
        ("betti_nonchordal", _corrupt_table),
        ("strand", _corrupt_strand),
    ],
)
def test_corrupted_output_counts_as_failed(name, corrupt):
    wl = WORKLOADS[name]
    item = next(it for it in _items(name, 20) if len(it.edges) < it.n * (it.n - 1) // 2)
    good = wl.run(_Lib, item)
    assert wl.check(item, good) == []
    cal = Calibration()
    cal.sample()
    loop = run.Loop(_Lib, dataclasses.replace(wl, run=lambda lib, it: corrupt(good)), cal)
    loop.run_item(item)
    loop.run_item(item)
    loop.check()
    assert loop.failed == 2


def test_calibration_scales_by_the_kernel_time_around_each_window():
    cal = Calibration()
    cal.samples = [REFERENCE_S / 2, REFERENCE_S / 2, REFERENCE_S * 2]
    loop = run.Loop(_Lib, WORKLOADS["verify"], cal)
    loop.times, loop.windows = [1.0, 1.0], [0, 1]
    # Window 0 ran at twice the reference speed; window 1 between the two.
    assert loop.scaled() == [2.0, pytest.approx(1 / 1.25)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_mode(name, tmp_path):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] == run.SMOKE_ITEMS
    assert set(last["metrics"]) == {
        "throughput_per_s", "item_ms.p50", "item_ms.tail", "setup_s", "peak_rss_mb"
    }


def test_traced_smoke_reports_every_layer_metric():
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "betti_chordal", "--seed", "2",
         "--seconds", "1", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
    assert len(metrics) == 3 * len(run.LAYERS) + 2
    assert 0 < metrics["betti.homology_calls_per_subset"]["value"] <= 1
    assert metrics["betti._homology_dims.calls_per_item"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
