"""Each perfbench workload runs and reproduces its reference outputs.

A benchmark run always traces its warm-up repetition, and tracing wraps
package functions by name (model.splice, model.fuse_pre, Encoder.encode
and others, see perfbench/spans.py). A rename that the rest of the
suite never notices would make every benchmark run fail, so this runs
one traced repetition of each workload at seed 0 through perfbench's own
Workload and check_outputs, as tools/check_reference_seeds.py does; the
eval workload then answers once more on the same Pipeline, cache-warm,
and both passes must match. A train workload's traced repetition must
also count encoder calls and tiled images, so the encoder's time stays
where the traces look for it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tf():
    return workloads.import_package()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(tf, name):
    wl = workloads.Workload(tf, name, 0)
    wl.set_up()
    rep, tracer = wl.traced_once()
    if wl.is_train:
        # a train repetition builds a fresh Pipeline, so its images are
        # tiled and encoded through the hooked functions; a refactor
        # that goes around them would hide that time from the traces
        assert tracer.counts["encoders.encode_calls"] > 0
        assert tracer.counts["tiling.images"] > 0
    # eval answers again on the same Pipeline, from its warm caches
    reps = [rep] if wl.is_train else [rep, wl.run_once()]
    ref = workloads.load_reference(name, wl.ref_key)
    check = workloads.check_outputs(wl, reps, ref, tracer.counts)
    assert check["failed"] == 0, check["notes"]
    assert check["checked"] > 0
