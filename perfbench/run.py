"""tilefusion benchmark: one fresh process per workload, one result line.

    python3 perfbench/run.py --workload train-hybrid --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. Each workload runs in its own child process with the
BLAS thread count pinned to 1, one child at a time, so no more threads
run than there are cores. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}, the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1. The
lines before it print every metric with its unit and sample count, and
a steadiness record (cores, load average, versions, CPU/wall ratio).
Exits 1 when an output check fails, 2 when the checkout has no package.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-hybrid", "train-tiles", "eval-decode")
CHILD_TIMEOUT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def run_child(workload: str, args) -> dict | None:
    """One workload in a fresh process; returns its document or None."""
    env = dict(os.environ, **PINNED_THREADS, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    load_before = os.getloadavg()
    cpu0, t0 = children_cpu_s(), time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    wall = time.perf_counter() - t0
    cpu = children_cpu_s() - cpu0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{workload}: exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: exited {proc.returncode}; last line is not "
              f"JSON: {lines[-1][:200]}", file=sys.stderr)
        return None
    doc["steadiness"].update({
        "load_before": load_before, "load_after": os.getloadavg(),
        "process_wall_s": wall, "process_cpu_s": cpu,
        "process_cpu_wall_ratio": cpu / wall, "exit_code": proc.returncode})
    return doc


def print_report(workload: str, doc: dict, args) -> None:
    print(f"== {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  repetitions {doc['repetitions']}")
    for name, m in sorted(doc["report"].items()):
        extra = ""
        if "n" in m:
            extra += f"  (n={m['n']})"
        if "reference" in m:
            extra += f"  (reference {m['reference']!r})"
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{extra}")
    for note in doc["notes"]:
        print(f"  CHECK FAILED: {note}")
    print("steadiness " + json.dumps(doc["steadiness"], sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tilefusion" / "__init__.py").is_file():
        print(f"no tilefusion package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        doc = run_child(name, args)
        if doc is None:
            return 1
        print_report(name, doc, args)
        results[name] = doc["result"]

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
