"""Self-tests of the benchmark: span accounting, patching at the caller's
binding, metric names, and a toy-size smoke run of every workload.

Run with the package on the path, from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import HOOK_SPAN, SpanStats, Tracer, is_wrapper, self_times
from workloads import WORKLOADS, steps_per_epoch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- self time on synthetic spans ---------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 2),
    ]
    t = self_times(spans)
    assert t["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert t["b"]["self_s"] == 3.0
    assert t["c"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert t["d"]["self_s"] == 1.0
    assert sum(v["self_s"] for v in t.values()) == t["(root)"]["s"] == 10.0


def test_self_time_counts_reentered_span_once_inclusive():
    spans = [("f", 0.0, 10.0, None), ("g", 1.0, 8.0, 0), ("f", 2.0, 5.0, 1)]
    t = self_times(spans)
    assert t["f"]["calls"] == 2
    assert t["f"]["s"] == 10.0  # the inner call lies inside the outer one
    assert t["f"]["self_s"] == pytest.approx(3.0 + 3.0)
    assert t["g"]["self_s"] == pytest.approx(4.0)


def test_self_time_handles_ties_and_several_roots():
    spans = [
        ("a", 0.0, 2.0, None),
        ("b", 0.0, 0.0, 0),  # zero-length child at its parent's start
        ("c", 0.0, 2.0, 0),  # child filling its parent
        ("a", 2.0, 3.0, None),  # next root starts where the first ends
    ]
    t = self_times(spans)
    assert t["a"] == {"calls": 2, "s": 3.0, "self_s": 1.0}
    assert t["b"]["calls"] == 1 and t["b"]["self_s"] == 0.0
    assert t["c"]["self_s"] == 2.0
    assert t["(root)"]["s"] == 3.0


@pytest.mark.parametrize(
    "spans",
    [
        [("a", 0.0, 1.0, None), ("b", 0.5, 1.5, 0)],  # child leaves its parent
        [("a", 0.0, 4.0, None), ("b", 1.0, 3.0, 0), ("c", 2.0, 3.5, 0)],  # overlap
        [("a", 2.0, 1.0, None)],  # ends before it starts
    ],
)
def test_self_time_rejects_spans_that_do_not_nest(spans):
    with pytest.raises(ValueError):
        self_times(spans)


def test_live_aggregator_matches_replay():
    stats = SpanStats(["x", "y"])
    stats.open(0, 0.0)
    stats.open(1, 1.0)
    stats.close(2.5)
    stats.close(4.0)
    replay = self_times([("x", 0.0, 4.0, None), ("y", 1.0, 2.5, 0)])
    assert stats.by_name()["x"] == replay["x"]
    assert stats.by_name()["y"] == replay["y"]
    assert stats.root_s == replay["(root)"]["s"]


# -- tracing the real package ----------------------------------------------------------


def test_tracer_patches_caller_bindings_and_restores():
    megraph = pytest.importorskip("megraph")
    import megraph.checks  # noqa: F401  (the tracer needs every traced module)
    from megraph.config import ExperimentConfig, OptimizerConfig, SynthSpec
    from megraph.model import ModelConfig

    config = ExperimentConfig(
        synth=SynthSpec(n_subjects=2, samples_per_subject=3, n_classes=3),
        model=ModelConfig(variant="backbone", channels=4, n_classes=3),
        optimizer=OptimizerConfig(epochs=1, batch_size=4),
    )
    original = megraph.training.sgd_step
    tracer = Tracer(megraph)
    tracer.patch()
    try:
        assert is_wrapper(megraph.training.sgd_step)
        megraph.training.run_loso(config)
    finally:
        tracer.restore()

    # training.py calls `sgd_step` through its own imported name
    patched = {(b.owner, b.attr) for b in tracer.bindings}
    assert (megraph.training, "sgd_step") in patched
    assert (megraph.checks, "sample_graph") in patched
    assert tracer.calls("params.sgd_step") > 0
    assert tracer.calls("losses.total_loss") > 0
    assert tracer.calls("model.forward") > 0
    assert tracer.calls("model.decompose") == 0
    assert tracer.calls(HOOK_SPAN) == 0
    stats = tracer.stats
    assert sum(stats.self_s) == pytest.approx(stats.root_s, rel=1e-9)
    assert tracer.unrestored() == []
    assert megraph.training.sgd_step is original is megraph.params.sgd_step
    assert run.wrapped_bindings(megraph) == []


# -- names and the benchmark file -----------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_file_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_percentile_support_follows_sample_count():
    assert run.high_percentile(19) is None
    assert run.high_percentile(100) == 90.0
    assert run.high_percentile(1000) == 99.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}


def test_steps_per_epoch_merges_singleton_tail():
    assert steps_per_epoch(54, 16, merge_tail=True) == 4
    assert steps_per_epoch(17, 16, merge_tail=True) == 1
    assert steps_per_epoch(17, 16, merge_tail=False) == 2


# -- smoke runs -------------------------------------------------------------------------


def _bench(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_traced_run_is_correct(workload, tmp_path):
    out = tmp_path / "results.json"
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                   "--trace", "1", "--scale", "toy", "--out", str(out)])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _ in run.PER_LAYER]
    record = json.loads(out.read_text())["workloads"][workload]
    assert record["problems"] == []
    assert record["trace"]["accounting_ratio"] == pytest.approx(1.0, abs=0.1)


def test_toy_untraced_run_reports_end_to_end_metrics():
    proc = _bench(["--workload", "loso_backbone", "--seed", "1", "--seconds", "0.2",
                   "--trace", "0", "--scale", "toy"])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(["--workload", "loso_full", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
