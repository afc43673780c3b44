"""tools/bench_pairs.py's statistics on canned perfbench result lines;
no benchmark runs."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

SPEC = {
    "workloads": [{"name": "train-tiles"}, {"name": "eval-decode"}],
    "end_to_end": [
        {"name": "samples_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def stdout(values, correct=True):
    """A run.py standard output: report lines, then the result line."""
    doc = {"correct": correct, "attempted": 3, "failed": 0,
           "metrics": {k: {"value": v, "unit": "s"}
                       for k, v in values.items()}}
    return "== train-tiles  seed 0\n  setup_s 0.03 s\n" + json.dumps(doc)


def test_single_workload_metrics_are_named_by_workload():
    got = bench_pairs.result_metrics(stdout({"setup_s": 0.03}), "train-tiles")
    assert got == ({"train-tiles.setup_s": 0.03}, True)
    both = stdout({"eval-decode.setup_s": 0.2}, correct=False)
    assert bench_pairs.result_metrics(both, "all") == \
        ({"eval-decode.setup_s": 0.2}, False)


def test_medians_wins_spread_and_bound():
    parent_sps = [100.0, 110.0, 90.0, 105.0, 95.0]
    change_sps = [120.0, 100.0, 95.0, 130.0, 96.0]
    parent_setup = [0.02, 0.03, 0.04, 0.03, 0.03]
    change_setup = [0.05, 0.04, 0.05, 0.06, 0.04]
    parent = [bench_pairs.result_metrics(stdout(
        {"samples_per_s": s, "setup_s": t}), "train-tiles")[0]
        for s, t in zip(parent_sps, parent_setup)]
    change = [bench_pairs.result_metrics(stdout(
        {"samples_per_s": s, "setup_s": t}), "train-tiles")[0]
        for s, t in zip(change_sps, change_setup)]

    rows = bench_pairs.summarise(parent, change, SPEC)
    # eval-decode was not run, so only train-tiles has rows
    assert [r["metric"] for r in rows] == ["train-tiles.samples_per_s",
                                           "train-tiles.setup_s"]
    sps, setup = rows
    assert (sps["parent"], sps["change"]) == (100.0, 100.0)
    # higher is better: pairs 1, 3, 4 and 5 won, pair 2 lost
    assert (sps["wins"], sps["pairs"]) == (4, 5)
    assert sps["parent_iqr"] == 105.0 - 95.0
    assert not sps["flagged"]
    # lower is better: no pair won, and 0.05 is 0.02 (67%) over 0.03
    assert (setup["parent"], setup["change"], setup["wins"]) == \
        (0.03, 0.05, 0)
    assert setup["flagged"]
    assert bench_pairs.format_rows(rows)[2].endswith("WORSE THAN BOUND")
