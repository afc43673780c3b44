"""Check every workload against perfbench/reference.json for all task seeds.

A perfbench run checks the outputs of one task seed only. This script
runs one repetition per task seed (0 to REFERENCE_SEEDS - 1) of each
workload through perfbench's own Workload and check_outputs, prints one
line per seed and every mismatch, and exits 1 if any seed fails. Use it
after a change that may move numerics. Each eval seed also runs a second
repetition on the same Pipeline, so its cache-warm answers are checked
against the reference and against the cold first pass.

    python3 tools/check_reference_seeds.py
    python3 tools/check_reference_seeds.py --workload eval-decode
    python3 tools/check_reference_seeds.py --dump outputs.json
    python3 tools/check_reference_seeds.py --against parent.json

The reference check allows a relative loss tolerance, so it cannot show
that a change is bitwise. --dump writes every seed's outputs, from
its first repetition, to a JSON file (train losses as float.hex, eval
answers and the decoded token count as they are), with a sha1 over the
generated splits (each sample's images' content_keys, question and
answer, in order); dumps made on two commits are byte-identical
exactly when the outputs and the data are, so compare them with cmp.
The data digest shows a change in how images are stored to leave
their pixels bitwise as they were. For a change
that is not bitwise by design, --against DUMP reads a dump made on
another commit and prints, per workload, the share of outputs that are
bitwise equal to it and, for the train workloads, the largest relative
loss difference.

It imports perfbench/workloads.py and changes nothing under perfbench/.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def data_digest(data) -> str:
    """sha1 over both splits of a TaskData: per split its length, then
    per sample its images' content_keys, question and answer."""
    h = hashlib.sha1()
    for split in (data.train, data.eval):
        h.update(repr(len(split)).encode())
        for s in split:
            keys = [img.content_key for img in s.images]
            h.update(repr((keys, s.question, s.answer)).encode())
    return h.hexdigest()


def check_seed(tf, name: str, seed: int) -> tuple:
    """(check result, exact outputs of the first repetition and the
    generated data's digest) of one seed. An eval workload runs a
    second, untraced repetition on the same Pipeline, whose frozen-token
    caches the first one filled, so the check holds the cache-warm
    answers to the cold ones."""
    wl = workloads.Workload(tf, name, seed)
    wl.set_up()
    rep, tracer = wl.traced_once()
    reps = [rep] if wl.is_train else [rep, wl.run_once()]
    ref = workloads.load_reference(name, wl.ref_key)
    check = workloads.check_outputs(wl, reps, ref, tracer.counts)
    if wl.is_train:
        exact = {"losses": [float(x).hex() for x in rep["outputs"]]}
    else:
        exact = {"answers": list(rep["outputs"]),
                 "tokens": int(tracer.counts["lm.decoded_tokens"])}
    exact["data_sha1"] = data_digest(wl.data)
    return check, exact


def drift_lines(dump: dict, other: dict) -> list:
    """Per workload: bitwise-equal share and max relative loss change."""
    lines = []
    for name, seeds in dump.items():
        shared = [s for s in seeds if s in other.get(name, {})]
        if not shared:
            lines.append(f"{name}: no seed in common with the other dump")
            continue
        key = "losses" if "losses" in seeds[shared[0]] else "answers"
        ours = [x for s in shared for x in seeds[s][key]]
        theirs = [x for s in shared for x in other[name][s][key]]
        if len(ours) != len(theirs):
            lines.append(f"{name}: {len(ours)} outputs against "
                         f"{len(theirs)} in the other dump")
            continue
        equal = sum(a == b for a, b in zip(ours, theirs))
        line = (f"{name}: {equal}/{len(ours)} {key} bitwise equal "
                f"({equal / len(ours):.1%}) over {len(shared)} seeds")
        if key == "losses":
            rel = max((abs(float.fromhex(a) - float.fromhex(b))
                       / abs(float.fromhex(b))
                       for a, b in zip(ours, theirs) if a != b), default=0.0)
            line += f", max relative loss difference {rel:.3g}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS),
                   help="workload to check (repeatable); default all")
    p.add_argument("--dump", metavar="PATH",
                   help="also write every seed's exact outputs as JSON")
    p.add_argument("--against", metavar="DUMP",
                   help="report drift against a --dump from another commit")
    args = p.parse_args(argv)
    other = None
    if args.against:
        with open(args.against) as f:
            other = json.load(f)
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
    if other is not None:
        print(f"drift against {args.against}:")
        for line in drift_lines(dump, other):
            print(f"  {line}")
    total = len(names) * workloads.REFERENCE_SEEDS
    print(f"{total - len(bad)}/{total} workload seeds match the reference"
          + (f"; failed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
