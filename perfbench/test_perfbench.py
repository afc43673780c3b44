"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

import json
import types
from pathlib import Path

import pytest

import measure
import spans
import workloads

BENCH = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# ---- tail percentile rule ---------------------------------------------


@pytest.mark.parametrize("n, label", [
    (100, "p90"), (199, "p90"), (200, "p95"), (999, "p95"),
    (1000, "p99"), (9999, "p99"), (10000, "p99.9"),
    (20, "p50"), (39, "p50"), (40, "p75"),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, label):
    pm = measure.tail_permille(n)
    assert measure.percentile_label(pm) == label
    assert measure.samples_beyond(n, pm) >= 10
    higher = [p for p in measure.TAIL_PERMILLE if p > pm]
    assert all(measure.samples_beyond(n, p) < 10 for p in higher)


def test_tail_needs_twenty_samples():
    assert measure.tail_permille(19) is None
    assert measure.tail_permille(0) is None


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 100) == 5.0
    assert measure.percentile(values, 90) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        measure.percentile([], 50)


# ---- self time from nested spans ------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 7] > b [2, 5]; root > c [8, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    root = tracer.begin("root")
    a = tracer.begin("a")
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(a)
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(root)
    assert tracer.parents == [spans.NO_PARENT, root, a, root]
    assert tracer.self_times() == {"root": 3, "a": 3, "b": 3, "c": 1}
    assert sum(tracer.self_times().values()) == 10


def test_self_time_sums_repeated_names():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 4, 7, 9]))
    root = tracer.begin("root")
    for _ in range(2):
        i = tracer.begin("leaf")
        tracer.end(i)
    tracer.end(root)
    assert tracer.self_times() == {"root": 4, "leaf": 5}
    assert tracer.durations("leaf") == [2, 3]


def test_wrap_records_span_and_bookkeeping_and_reraises():
    tracer = spans.Tracer(clock=FakeClock(range(100)))
    seen = []
    f = tracer.wrap("layer", lambda x: x * 2,
                    after=lambda out, args: seen.append((out, args)))
    assert f(3) == 6
    assert seen == [(6, (3,))]
    assert tracer.names == ["layer", "trace.bookkeeping"]
    assert tracer.parents == [spans.NO_PARENT, spans.NO_PARENT]

    def boom():
        raise KeyError("x")

    g = tracer.wrap("bad", boom)
    with pytest.raises(KeyError):
        g()
    assert tracer.ends[-1] is not None
    assert tracer._stack == []


def test_unbalanced_end_is_an_error():
    tracer = spans.Tracer(clock=FakeClock(range(10)))
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_graph_size_counts_shared_nodes_once():
    class Node:
        def __init__(self, *prev):
            self._prev = prev

    leaf = Node()
    mid1, mid2 = Node(leaf), Node(leaf)
    top = Node(mid1, mid2, leaf)
    assert spans.graph_size(top) == 4


# ---- metric names ---------------------------------------------------


@pytest.mark.parametrize("name", [
    "setup_s", "tiling.segment_ms", "runtime.gc_gen2_collections",
    "0ms", "a" * 64, "x-y.z_1"])
def test_valid_names(name):
    assert measure.valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "-lead", "a" * 65, "has space", "a/b", "p95%"])
def test_invalid_names(name):
    assert not measure.valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "ms/step", "%", "count/100step"):
        assert measure.valid_unit(unit)
    for unit in ("", "a" * 17, "m s", "ms!"):
        assert not measure.valid_unit(unit)


def test_benchmark_json_names_and_units_are_valid():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in BENCH[key]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(measure.valid_name(n) for n in names)
    for key in ("end_to_end", "per_layer"):
        assert all(measure.valid_unit(m["unit"]) for m in BENCH[key])
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(
        workloads.WORKLOADS)


def declared(key):
    return {(m["name"], m["unit"]) for m in BENCH[key]}


@pytest.mark.parametrize("is_train", [True, False])
def test_end_to_end_reports_exactly_the_declared_metrics(is_train):
    wl = types.SimpleNamespace(is_train=is_train)
    rep = {"outputs": [1.0, 0.5], "unit_ms": [float(i) for i in range(40)],
           "stage_ms": {"stage1": [1.0] * 20, "stage2": [2.0] * 20},
           "wall": 2.0, "units": 40, "samples": 320}
    check = {"failed": 0, "matched": 80, "checked": 80,
             "final_reference": 0.5}
    metrics, report = workloads.end_to_end(wl, [0.1, 0.3, 0.2], [rep, rep],
                                           check)
    assert {(k, v["unit"]) for k, v in metrics.items()} == declared(
        "end_to_end")
    assert metrics["setup_s"]["value"] == 0.2
    assert metrics["samples_per_s"]["value"] == 160.0
    assert metrics["output_match"]["value"] == 1.0
    assert report["failed_share"]["value"] == 0.0
    if is_train:
        assert report["stage1_step_ms_p50"]["n"] == 40
        assert "stage2_step_ms_p75" in report
    else:
        assert report["eval_sample_ms_p50"]["n"] == 80
        assert "eval_sample_ms_p75" in report


def test_per_layer_reports_declared_metrics_that_sum_to_the_step():
    wl = types.SimpleNamespace(is_train=True, batch_size=8)
    # two steps in one run_stage window [0, 10]: backward [1, 4]
    # holding a bookkeeping span [2, 3], optimizer [5, 6]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tracer.begin("training.run_stage")
    back = tracer.begin("tensor.backward")
    book = tracer.begin("trace.bookkeeping")
    tracer.end(book)
    tracer.end(back)
    opt = tracer.begin("training.optimizer")
    tracer.end(opt)
    tracer.end(root)
    setup = spans.Tracer(clock=FakeClock([0, 1]))
    setup.end(setup.begin("datagen.generate"))
    traced = [{"wall": 1.1, "units": 2}]
    untraced = [{"wall": 1.0, "units": 2}]
    m = workloads.per_layer(wl, tracer, traced, untraced, setup)
    assert {(k, v["unit"]) for k, v in m.items()} == declared("per_layer")
    layers = sum(m[f"{name}_ms"]["value"] for name in workloads.LAYER_SPANS)
    other = m["training.step_other_ms"]["value"]
    assert m["trace.step_ms"]["value"] == 5000.0
    assert layers + other == pytest.approx(5000.0)
    assert m["tensor.backward_ms"]["value"] == 1000.0
    assert m["trace.overhead_share"]["value"] == pytest.approx(0.1)


# ---- n_train scaling ------------------------------------------------


def test_scaled_n_train_keeps_visits_per_image():
    # complementary-hybrid: 800 steps of 8 over 2000 images = 3.2 visits
    n = measure.scaled_n_train(2000, 800, 32, 8)
    assert n == 80
    assert 32 * 8 / n == pytest.approx(800 * 8 / 2000)
    # tile-detail-tiled: 2600 steps of 8 over 1800 images = 11.56 visits
    n = measure.scaled_n_train(1800, 2600, 52, 8)
    assert n == 36
    assert 52 * 8 / n == pytest.approx(2600 * 8 / 1800)


def test_scaled_n_train_rounds_half_up_and_keeps_one_batch():
    assert measure.scaled_n_train(10, 4, 2, 1) == 5
    assert measure.scaled_n_train(5, 2, 1, 1) == 3  # 2.5 rounds up
    assert measure.scaled_n_train(2000, 800, 1, 8) == 8  # 2.5 < one batch
    with pytest.raises(ValueError):
        measure.scaled_n_train(2000, 0, 32, 8)
