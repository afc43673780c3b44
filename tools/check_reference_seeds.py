"""Check every workload against perfbench/reference.json for all task seeds.

A perfbench run checks the outputs of one task seed only. This script
runs one repetition per task seed (0 to REFERENCE_SEEDS - 1) of each
workload through perfbench's own Workload and check_outputs, prints one
line per seed and every mismatch, and exits 1 if any seed fails. Use it
after a change that may move numerics.

    python3 tools/check_reference_seeds.py
    python3 tools/check_reference_seeds.py --workload eval-decode

It imports perfbench/workloads.py and changes nothing under perfbench/.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def check_seed(tf, name: str, seed: int) -> dict:
    wl = workloads.Workload(tf, name, seed)
    wl.set_up()
    rep, tracer = wl.traced_once()
    ref = workloads.load_reference(name, wl.ref_key)
    return workloads.check_outputs(wl, [rep], ref, tracer.counts)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS),
                   help="workload to check (repeatable); default all")
    args = p.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    tf = workloads.import_package()
    bad = []
    for name in names:
        for seed in range(workloads.REFERENCE_SEEDS):
            t0 = time.perf_counter()
            check = check_seed(tf, name, seed)
            ok = check["failed"] == 0
            print(f"{name} seed {seed:2d}: "
                  f"{'ok' if ok else 'MISMATCH'} "
                  f"({check['matched']}/{check['checked']} outputs match, "
                  f"{time.perf_counter() - t0:.1f} s)", flush=True)
            for note in check["notes"]:
                print(f"    {note}")
            if not ok:
                bad.append(f"{name}/{seed}")
    total = len(names) * workloads.REFERENCE_SEEDS
    print(f"{total - len(bad)}/{total} workload seeds match the reference"
          + (f"; failed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
