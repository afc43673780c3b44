"""Alternating parent/change perfbench pairs, summarised per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \
        --workload all --seconds 25 --trace 0 --seed 0

Each pair runs perfbench/run.py once in each checkout, one run at a
time: the parent runs first on odd pairs (1, 3, ...) and the change
first on even ones, so drift in the host's load falls on both sides
alike. For each workload and metric it then prints the parent and
change medians, the pairs the change won (strictly better), and the
parent's quartile spread (q3 - q1). With --trace 0 (the default) the
metrics are the end-to-end ones, and a metric whose change median is
worse than the parent's by more than its bound, taken as a share of
the parent median, is flagged. A metric is also marked unresolved
when the parent's own q3 - q1 exceeds that bound, unless every change
run reads better than every parent run: its runs spread too widely to
call it unchanged. With --trace 1 they are the per-layer
metrics of traced runs, which have no bound and are never flagged:
several traced runs per side, with medians, attribute a change to a
layer where one traced run cannot. Metric directions and bounds come
from the BENCHMARK.json beside this script, which it only reads.

Every run takes the task seed --seed (default 0), so a claimed gain
can be checked again on a seed the change was not written on.

--claim WORKLOAD.METRIC (for example eval-decode.samples_per_s) checks
a claimed gain on one metric by the gain rule: the change wins at least
9 in 10 of the pairs (ties count for neither side), and the change
median is better than the parent median, in the metric's direction, by
more than the parent's q3 - q1. It prints whether the claim holds and
exits 1 when it does not.

Each run's metrics go to standard error as it ends, so every run made
is on record. Exits 1 when a metric is flagged, a claim does not hold,
or a run gives no result or fails its output checks.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WIN_SHARE = 0.9  # the change must win 9 in 10 pairs


def result_metrics(stdout: str, workload: str) -> tuple[dict, bool]:
    """(metrics, correct) from one perfbench/run.py standard output.

    The last line is the result document, each metric a {"value",
    "unit"} object; only the values are kept. A single-workload run
    names its metrics bare; they are prefixed with the workload here,
    as an --workload all run names them.
    """
    doc = json.loads(stdout.strip().splitlines()[-1])
    prefix = "" if workload == "all" else f"{workload}."
    metrics = {prefix + k: m["value"] for k, m in doc["metrics"].items()}
    return metrics, bool(doc["correct"])


def summarise(parent: list[dict], change: list[dict], spec: dict,
              section: str = "end_to_end") -> list[dict]:
    """One row per workload x metric of spec[section] over paired runs.

    parent[i] and change[i] are the metrics of pair i. A metric with a
    bound is flagged when the change median is worse than the parent
    median by more than bound * |parent median|, and unresolved when
    the parent's q3 - q1 exceeds bound * |parent median| and some change
    run does not read better than every parent run; one without a bound
    (a per-layer metric) is neither.
    """
    rows = []
    for workload in spec["workloads"]:
        for metric in spec[section]:
            key = f"{workload['name']}.{metric['name']}"
            if key not in parent[0]:
                continue
            p = np.array([run[key] for run in parent], dtype=float)
            c = np.array([run[key] for run in change], dtype=float)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            p_med, c_med = float(np.median(p)), float(np.median(c))
            q1, q3 = np.percentile(p, [25, 75])
            allowed = metric.get("bound", math.inf) * abs(p_med)
            rows.append({
                "metric": key, "better": metric["better"],
                "parent": p_med, "change": c_med,
                "wins": int(np.sum(sign * (c - p) < 0)), "pairs": len(p),
                "parent_iqr": float(q3 - q1),
                "flagged": sign * (c_med - p_med) > allowed,
                "unresolved": bool(q3 - q1 > allowed
                                   and np.max(sign * c) >= np.min(sign * p)),
            })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':44s} {'parent':>10s} {'change':>10s} "
             f"{'wins':>6s} {'parent q3-q1':>12s}"]
    for r in rows:
        lines.append(
            f"{r['metric']:44s} {r['parent']:10.4g} {r['change']:10.4g} "
            f"{r['wins']:>3d}/{r['pairs']:<2d} {r['parent_iqr']:12.4g}"
            + ("  UNRESOLVED" if r["unresolved"] else "")
            + ("  WORSE THAN BOUND" if r["flagged"] else ""))
    return lines


def claim_verdict(row: dict) -> tuple[bool, str]:
    """(holds, one-line report) of the gain rule on one summarise row.

    The claim holds when the change won at least CLAIM_WIN_SHARE of the
    pairs (a tie is no win) and its median is better than the parent's,
    in the metric's direction, by more than the parent's q3 - q1.
    """
    sign = 1.0 if row["better"] == "lower" else -1.0
    gain = sign * (row["parent"] - row["change"])
    need = math.ceil(CLAIM_WIN_SHARE * row["pairs"])
    wins_ok = row["wins"] >= need
    gain_ok = gain > row["parent_iqr"]
    holds = wins_ok and gain_ok
    return holds, (
        f"claim {row['metric']} ({row['better']} is better): "
        f"{'HOLDS' if holds else 'DOES NOT HOLD'}; wins "
        f"{row['wins']}/{row['pairs']} (need {need}), median gain "
        f"{gain:.4g} vs parent q3-q1 {row['parent_iqr']:.4g}")


def run_once(checkout: Path, args) -> tuple[dict, bool]:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if not proc.stdout.strip():
        raise RuntimeError(f"{checkout}: exited {proc.returncode} "
                           "without a result")
    return result_metrics(proc.stdout, args.workload)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", default="all")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--claim", metavar="WORKLOAD.METRIC",
                   help="check a claimed gain on this metric")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    if args.claim is not None:
        known = {f"{w['name']}.{m['name']}" for w in spec["workloads"]
                 for m in spec[section]
                 if args.workload in ("all", w["name"])}
        if args.claim not in known:
            p.error(f"--claim {args.claim}: not a {section} metric of "
                    f"--workload {args.workload}")

    runs = {"parent": [], "change": []}
    failed = 0
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            try:
                metrics, correct = run_once(getattr(args, side).resolve(), args)
            except (RuntimeError, ValueError, KeyError) as err:
                print(f"pair {i} {side}: {err}", file=sys.stderr)
                return 1
            failed += not correct
            runs[side].append(metrics)
            print(f"pair {i} {side}: {json.dumps(metrics)}",
                  file=sys.stderr, flush=True)

    rows = summarise(runs["parent"], runs["change"], spec, section)
    print("\n".join(format_rows(rows)))
    claim_holds = True
    if args.claim is not None:
        claimed = [r for r in rows if r["metric"] == args.claim]
        if claimed:
            claim_holds, report = claim_verdict(claimed[0])
        else:
            claim_holds, report = False, (
                f"claim {args.claim}: DOES NOT HOLD; no run reported it")
        print(report)
    if failed:
        print(f"{failed} runs failed their output checks")
    flagged = any(r["flagged"] for r in rows)
    return 1 if failed or flagged or not claim_holds else 0


if __name__ == "__main__":
    sys.exit(main())
