"""Check every workload against perfbench/reference.json for all task seeds.

A perfbench run checks the outputs of one task seed only. This script
runs one repetition per task seed (0 to REFERENCE_SEEDS - 1) of each
workload through perfbench's own Workload and check_outputs, prints one
line per seed and every mismatch, and exits 1 if any seed fails. Use it
after a change that may move numerics.

    python3 tools/check_reference_seeds.py
    python3 tools/check_reference_seeds.py --workload eval-decode
    python3 tools/check_reference_seeds.py --dump outputs.json

The reference check allows a relative loss tolerance, so it cannot show
that a change is bitwise. --dump writes every seed's outputs to a JSON
file (train losses as float.hex, eval answers and the decoded token
count as they are); dumps made on two commits are byte-identical
exactly when the outputs are, so compare them with cmp.

It imports perfbench/workloads.py and changes nothing under perfbench/.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def check_seed(tf, name: str, seed: int) -> tuple:
    """(check result, exact outputs) of one repetition of one seed."""
    wl = workloads.Workload(tf, name, seed)
    wl.set_up()
    rep, tracer = wl.traced_once()
    ref = workloads.load_reference(name, wl.ref_key)
    check = workloads.check_outputs(wl, [rep], ref, tracer.counts)
    if wl.is_train:
        exact = {"losses": [float(x).hex() for x in rep["outputs"]]}
    else:
        exact = {"answers": list(rep["outputs"]),
                 "tokens": int(tracer.counts["lm.decoded_tokens"])}
    return check, exact


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS),
                   help="workload to check (repeatable); default all")
    p.add_argument("--dump", metavar="PATH",
                   help="also write every seed's exact outputs as JSON")
    args = p.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    tf = workloads.import_package()
    bad = []
    dump = {}
    for name in names:
        for seed in range(workloads.REFERENCE_SEEDS):
            t0 = time.perf_counter()
            check, exact = check_seed(tf, name, seed)
            dump.setdefault(name, {})[str(seed)] = exact
            ok = check["failed"] == 0
            print(f"{name} seed {seed:2d}: "
                  f"{'ok' if ok else 'MISMATCH'} "
                  f"({check['matched']}/{check['checked']} outputs match, "
                  f"{time.perf_counter() - t0:.1f} s)", flush=True)
            for note in check["notes"]:
                print(f"    {note}")
            if not ok:
                bad.append(f"{name}/{seed}")
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(dump, f, indent=1, sort_keys=True)
            f.write("\n")
    total = len(names) * workloads.REFERENCE_SEEDS
    print(f"{total - len(bad)}/{total} workload seeds match the reference"
          + (f"; failed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
