"""tools/bench_pairs.py's statistics on canned perfbench result lines,
and the command line of each run, with subprocess.run faked; no
benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_spread_wider_than_bound_is_unresolved_unless_every_run_is_better(
        monkeypatch, tmp_path, capsys):
    # setup_s spreading 35% of its median against a 0.25 bound, as
    # train-tiles' setup_s has spread 38%
    parent_setup = [0.08, 0.09, 0.10, 0.125, 0.13]
    same = [0.085, 0.10, 0.11, 0.095, 0.12]
    better = [0.05, 0.06, 0.07, 0.06, 0.079]  # each under every parent run
    narrow = [100.0, 101.0, 99.0, 100.0, 100.5]

    def runs(setup):
        return [bench_pairs.result_metrics(stdout(
            {"samples_per_s": s, "setup_s": t}), "train-tiles")[0]
            for s, t in zip(narrow, setup)]

    rows = bench_pairs.summarise(runs(parent_setup), runs(same), SPEC)
    sps, setup = rows
    assert setup["parent_iqr"] > 0.25 * setup["parent"]
    assert setup["unresolved"] and not setup["flagged"]
    assert not sps["unresolved"]  # its spread is inside the bound
    lines = bench_pairs.format_rows(rows)
    assert lines[2].endswith("UNRESOLVED") and "UNRESOLVED" not in lines[1]
    _, setup = bench_pairs.summarise(runs(parent_setup), runs(better), SPEC)
    assert not setup["unresolved"] and setup["wins"] == 5

    # unresolved is reported, and the exit code stays what the flags say
    values = {"parent": iter(parent_setup), "change": iter(same)}

    def fake_run(cmd, **kwargs):
        side = Path(cmd[1]).parent.parent.name
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout(
            {"samples_per_s": 100.0, "setup_s": next(values[side])}))

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert bench_pairs.main(sides + ["--pairs", "5", "--workload",
                                     "train-tiles"]) == 0
    assert "UNRESOLVED" in capsys.readouterr().out


def test_trace_runs_summarise_per_layer_metrics_without_bounds():
    spec = dict(SPEC, per_layer=[
        {"name": "encoders.encode_ms", "unit": "ms/step", "better": "lower"},
        {"name": "trace.covered_share", "unit": "share", "better": "higher"},
    ])
    parent_ms = [4.0, 5.0, 6.0, 5.5]
    change_ms = [8.0, 9.0, 7.0, 10.0]  # twice as slow: still no flag
    parent_cov = [0.8, 0.7, 0.9, 0.8]
    change_cov = [0.9, 0.6, 0.95, 0.85]

    def runs(ms, cov):
        return [bench_pairs.result_metrics(stdout(
            {"train-tiles.encoders.encode_ms": m,
             "train-tiles.trace.covered_share": c,
             "train-tiles.samples_per_s": 100.0}), "all")[0]
            for m, c in zip(ms, cov)]

    rows = bench_pairs.summarise(runs(parent_ms, parent_cov),
                                 runs(change_ms, change_cov), spec,
                                 "per_layer")
    assert [r["metric"] for r in rows] == ["train-tiles.encoders.encode_ms",
                                           "train-tiles.trace.covered_share"]
    ms, cov = rows
    assert (ms["parent"], ms["change"], ms["wins"]) == (5.25, 8.5, 0)
    assert ms["parent_iqr"] == np.percentile(parent_ms, 75) - \
        np.percentile(parent_ms, 25)
    assert (cov["parent"], cov["change"], cov["wins"]) == (0.8, 0.875, 3)
    assert not ms["flagged"] and not cov["flagged"]
    assert not any("WORSE" in line
                   for line in bench_pairs.format_rows(rows))


def test_every_run_takes_the_seed(monkeypatch, tmp_path):
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(
            cmd, 0, stdout=stdout({"samples_per_s": 100.0}))

    monkeypatch.setattr(subprocess, "run", fake_run)
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    common = ["--pairs", "2", "--workload", "train-tiles", "--seconds", "1"]
    assert bench_pairs.main(sides + common + ["--seed", "5"]) == 0
    assert len(commands) == 4
    for cmd in commands:
        assert cmd[cmd.index("--seed") + 1] == "5"
    commands.clear()
    assert bench_pairs.main(sides + common) == 0
    assert [cmd[cmd.index("--seed") + 1] for cmd in commands] == ["0"] * 4


def claim_row(parent_values, change_values, better="higher"):
    spec = {"workloads": [{"name": "eval-decode"}],
            "end_to_end": [{"name": "samples_per_s", "unit": "1/s",
                            "better": better, "bound": 0.25}]}
    parent = [{"eval-decode.samples_per_s": v} for v in parent_values]
    change = [{"eval-decode.samples_per_s": v} for v in change_values]
    [row] = bench_pairs.summarise(parent, change, spec)
    return row


def test_claim_needs_nine_in_ten_wins_and_a_gain_beyond_parent_spread():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0,
              100.0]
    q1, q3 = np.percentile(parent, [25, 75])
    assert q3 - q1 == 1.5
    # 10/10 wins, median 110 against 100
    holds, report = bench_pairs.claim_verdict(
        claim_row(parent, [v + 10.0 for v in parent]))
    assert holds and "HOLDS" in report and "10/10" in report
    # 9/10: one pair lost
    change = [v + 10.0 for v in parent]
    change[6] = 90.0
    assert bench_pairs.claim_verdict(claim_row(parent, change))[0]
    # 8/10: a lost pair and a tie, which counts for neither side
    change[3] = parent[3]
    holds, report = bench_pairs.claim_verdict(claim_row(parent, change))
    assert not holds and "DOES NOT HOLD" in report and "8/10" in report
    # 10/10 wins, but the median gain 1.5 is not more than the parent's
    # q3 - q1 of 1.5
    holds, report = bench_pairs.claim_verdict(
        claim_row(parent, [v + 1.5 for v in parent]))
    assert not holds and "wins 10/10" in report
    # lower is better: the same runs read the other way round
    assert bench_pairs.claim_verdict(
        claim_row([v + 10.0 for v in parent], parent, better="lower"))[0]
    assert not bench_pairs.claim_verdict(
        claim_row(parent, [v + 10.0 for v in parent], better="lower"))[0]


def test_claim_sets_the_exit_status(monkeypatch, capsys, tmp_path):
    # parent and change alternate first; each side reads its own value
    values = {"parent": 700.0, "change": 800.0}
    commands = []

    def fake_run(cmd, cwd, **kwargs):
        commands.append(cmd)
        sps = values[Path(cwd).name]
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout(
            {"samples_per_s": sps, "setup_s": 0.1}))

    monkeypatch.setattr(subprocess, "run", fake_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    args = sides + ["--pairs", "10", "--workload", "eval-decode",
                    "--claim", "eval-decode.samples_per_s"]
    assert bench_pairs.main(args) == 0
    assert "claim eval-decode.samples_per_s (higher is better): HOLDS" \
        in capsys.readouterr().out
    values["change"] = 690.0
    assert bench_pairs.main(args) == 1
    assert "DOES NOT HOLD" in capsys.readouterr().out
    # a metric the runs cannot report is refused before any run
    commands.clear()
    for claim in ("train-tiles.samples_per_s", "eval-decode.nope"):
        try:
            bench_pairs.main(sides + ["--workload", "eval-decode",
                                      "--claim", claim])
        except SystemExit as err:
            assert err.code == 2
        else:
            raise AssertionError(f"--claim {claim} was accepted")
    assert commands == []
