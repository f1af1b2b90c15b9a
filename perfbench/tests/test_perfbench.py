"""The benchmark's own checks, at toy scale.

* every workload prints every metric of ``BENCHMARK.json`` with its unit;
* the answer checks catch an injected wrong answer;
* the self-time arithmetic holds on a synthetic span tree, and the
  tracer restores what it wrapped.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import olap_wide, oltp_rw, served_mix, spans
from perfbench.common import MismatchError
from perfbench.oracle import ShadowTable, check_ids
from perfbench.spans import Span, Tracer, WrapPoint

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}

OLAP_TOY = olap_wide.Scale(rows=6000, sample_rows=3000, k_wide=40, n_range=8, n_aggregate=8, n_topk=4, n_knn=2)
OLTP_TOY = oltp_rw.Scale(rows=6000, sample_rows=3000, write_rows=3000, pool=32, rounds=2)


def units(metrics):
    return {name: value["unit"] for name, value in metrics.items()}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["olap_wide", "oltp_rw", "served_mix"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize(
    "module,workload",
    [
        (olap_wide, lambda: olap_wide.Workload(3, OLAP_TOY)),
        (oltp_rw, lambda: oltp_rw.Workload(3, OLTP_TOY)),
    ],
    ids=["olap_wide", "oltp_rw"],
)
def test_in_process_workloads_emit_every_metric(module, workload):
    load = workload()
    _, attempted, failed, metrics = module.measure(load, 0.2)
    assert units(metrics) == END_TO_END
    assert attempted > 0 and failed == 0
    # Resident-memory growth of a toy engine can be lost in what the
    # allocator frees meanwhile; every other metric must be positive.
    assert all(value["value"] > 0 for name, value in metrics.items() if name != "rss_mb")

    info, _, _, layers = module.trace(load, 0.2)
    assert units(layers) == PER_LAYER
    assert info["missing_wrap_points"] == []
    assert layers["trace.addup_error_share"]["value"] < 0.01
    assert layers["engine.self_us"]["value"] > 0


def test_served_mix_emits_every_metric():
    load = served_mix.Workload(3, rows=6000, sample_rows=3000, pool=4)
    _, attempted, failed, metrics = served_mix.measure(load, 0.6)
    assert units(metrics) == END_TO_END
    assert attempted > 0 and failed == 0

    info, _, _, layers = served_mix.trace(load, 0.6)
    assert units(layers) == PER_LAYER
    assert info["missing_wrap_points"] == []
    assert layers["protocol.decode_us"]["value"] > 0
    assert layers["dispatcher.hop_us"]["value"] > 0


@pytest.fixture(scope="module")
def olap_runner():
    load = olap_wide.Workload(4, OLAP_TOY)
    runner, _, _ = olap_wide.setup(load)
    yield load, runner
    runner.engine.close()


def test_wrong_range_answer_fails_the_run(olap_runner):
    load, runner = olap_runner
    right = load.want_ranges[1]
    load.want_ranges[1] = right[:-1]
    try:
        with pytest.raises(MismatchError, match="olap_wide: batch_range_query answer for query 1"):
            runner.run(0.0)
    finally:
        load.want_ranges[1] = right


def test_wrong_aggregate_answer_fails_the_run(olap_runner):
    load, runner = olap_runner
    right = load.want_sums
    load.want_sums = right + 1.0
    try:
        with pytest.raises(MismatchError, match="batch_aggregate"):
            runner.run(0.0)
    finally:
        load.want_sums = right


def test_shadow_table_tracks_writes():
    load = oltp_rw.Workload(5, OLTP_TOY)
    shadow = ShadowTable(load.table)
    box = load.narrow[0]
    before = shadow.query(box)
    shadow.delete(before[:1])
    assert np.array_equal(shadow.query(box), before[1:])
    row = {name: np.array([load.table.column(name)[before[0]]]) for name in load.table.schema}
    shadow.insert(np.array([load.table.n_rows]), row)
    assert shadow.query(box)[-1] == load.table.n_rows
    with pytest.raises(MismatchError, match="oltp_rw: point answer for query 7"):
        check_ids("oltp_rw", "point", 7, before, shadow.query(box))


def _span(sid, name, start, end, thread, parent=None, nested=True):
    return Span(sid, name, start, end, thread, parent, nested)


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = [
        _span(0, "root", 0.0, 10.0, 1),
        _span(1, "child", 1.0, 4.0, 1, parent=0),
        _span(2, "grandchild", 2.0, 3.0, 1, parent=1),
        _span(3, "engine.read", 4.5, 9.5, 1, parent=0),
        # Two pool-thread scans running in parallel inside the engine call.
        _span(4, "scan", 5.0, 8.0, 2),
        _span(5, "scan", 6.0, 9.0, 3),
        # A pool span outside every adopter stays a root.
        _span(6, "scan", 9.7, 9.9, 2),
    ]
    parents = spans.adopt(tree, ["engine.read"])
    assert parents[4] == 3 and parents[5] == 3 and parents[6] is None
    own = spans.self_times(tree, parents)
    assert own == pytest.approx({0: 2.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 3.0, 5: 3.0, 6: 0.2})
    local = spans.self_times(tree, parents, same_thread=True)
    assert local[3] == pytest.approx(5.0)
    assert spans.addup_error(tree, tree[0]) == pytest.approx(0.0)
    # Siblings that overlap on one thread cannot come from nested calls;
    # the add-up check catches them.
    broken = tree[:3] + [_span(3, "engine.read", 3.5, 9.5, 1, parent=0)]
    assert spans.addup_error(broken, tree[0]) == pytest.approx(0.05)
    totals = spans.layer_totals(tree, ["engine.read"])
    assert totals["scan"].calls == 3
    assert totals["scan"].busy_s == pytest.approx(6.2)
    assert spans.covered_share(tree, "scan", (0.0, 10.0)) == pytest.approx(0.42)


class _Target:
    def work(self, value):
        return value + 1


def test_tracer_wraps_and_restores():
    tracer = Tracer()
    original = _Target.__dict__["work"]
    missing = tracer.install(
        [WrapPoint(f"{__name__}:_Target", "work", "target"), WrapPoint(__name__, "gone", "x")]
    )
    assert missing == [f"{__name__}.gone"]
    assert _Target().work(1) == 2
    token = tracer.begin()
    _Target().work(2)
    tracer.finish("outer", token)
    tracer.uninstall()
    assert _Target.__dict__["work"] is original
    names = [span.name for span in tracer.spans]
    assert names == ["target", "target", "outer"]
    assert tracer.spans[1].parent == tracer.spans[2].sid


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "olap_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
