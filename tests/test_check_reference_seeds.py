"""tools/check_reference_seeds.py's data digest on small generated data;
no workload runs."""

import sys
from dataclasses import replace
from pathlib import Path

from tilefusion.datagen import TaskData, TaskSpec, generate
from tilefusion.tiling import image_from_u8, image_to_u8

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_reference_seeds  # noqa: E402


def small_data():
    return generate(TaskSpec(kind="complementary", image_size=(32, 32),
                             tile_size=32, n_classes=16, n_train=6,
                             n_eval=3, seed=4))


def test_data_digest_reads_pixels_not_their_storage():
    data = small_data()
    digest = check_reference_seeds.data_digest(data)
    assert data.train[0].images[0]._data.strides[2] == 0  # one plane

    def three_planes(s):
        return replace(s, images=[image_from_u8(image_to_u8(img))
                                  for img in s.images])

    copy = TaskData(train=[three_planes(s) for s in data.train],
                    eval=[three_planes(s) for s in data.eval])
    assert copy.train[0].images[0]._data.strides[2] != 0
    assert check_reference_seeds.data_digest(copy) == digest
    assert check_reference_seeds.data_digest(small_data()) == digest


def test_data_digest_changes_with_any_sample_field_or_split():
    data = small_data()
    digest = check_reference_seeds.data_digest(data)
    first = data.train[0]
    u8 = image_to_u8(first.images[0])
    u8[0, 0, 0] ^= 1
    changed = [
        replace(first, images=[image_from_u8(u8)]),
        replace(first, question=first.question + " "),
        replace(first, answer="?"),
    ]
    for sample in changed:
        other = TaskData(train=[sample] + data.train[1:], eval=data.eval)
        assert check_reference_seeds.data_digest(other) != digest
    moved = TaskData(train=data.train[:-1], eval=data.train[-1:] + data.eval)
    assert check_reference_seeds.data_digest(moved) != digest
