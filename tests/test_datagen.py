"""Generator tests: blindness construction, balance, oracles, files.

The complementary task's whole point is provable per-branch blindness,
so the tests check it at two levels: raw filter outputs bit-identical
across the hidden factor, and full encoder outputs bit-identical when
only the invisible factor changes. The tile-detail tests pin glyph
geometry (equal popcounts, distinct templates) and verify the
template-matching oracle is exact on generated data.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from tilefusion.datagen import (
    ANSWER_ALPHABET,
    CELL,
    GLYPH_MASKS,
    GLYPH_POPCOUNT,
    SHAPE_MASKS,
    TEXTURE_CELLS,
    Sample,
    TaskSpec,
    check_frequency_separation,
    complementary_oracle,
    generate,
    generate_complementary,
    generate_tile_detail,
    load_dataset,
    render_complementary,
    save_dataset,
    tile_detail_oracle,
    tile_detail_question,
    verify_complementary_blindness,
)
from tilefusion.encoders import Encoder, EncoderConfig, highpass_pixels, \
    lowpass_pixels
from tilefusion.errors import ConfigError
from tilefusion.tiling import image_from_u8, image_to_u8, segment


def comp_spec(n_train=160, n_eval=80, seed=7):
    return TaskSpec(kind="complementary", image_size=(32, 32),
                    tile_size=32, n_classes=16, n_train=n_train,
                    n_eval=n_eval, seed=seed)


def detail_spec(n_train=96, n_eval=48, seed=11, n_classes=8):
    return TaskSpec(kind="tile-detail", image_size=(96, 64),
                    tile_size=32, n_classes=n_classes, n_train=n_train,
                    n_eval=n_eval, seed=seed)


class TestTaskSpec:
    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="detail", image_size=(96, 64), tile_size=32,
                     n_classes=8, n_train=1, n_eval=1, seed=0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="tile-detail", image_size=(0, 64), tile_size=32,
                     n_classes=8, n_train=1, n_eval=1, seed=0)
        with pytest.raises(ConfigError):
            TaskSpec(kind="tile-detail", image_size=(96, 64), tile_size=32,
                     n_classes=1, n_train=1, n_eval=1, seed=0)
        with pytest.raises(ConfigError):
            TaskSpec(kind="tile-detail", image_size=(96, 64), tile_size=32,
                     n_classes=8, n_train=-1, n_eval=1, seed=0)


class TestComplementaryConstruction:
    def test_render_shape_and_range(self):
        img = render_complementary(32, 2, 1, 3, 2, 70, 180)
        assert img.shape == (32, 32, 3)
        assert img.dtype == np.uint8
        assert np.array_equal(img[:, :, 0], img[:, :, 1])
        assert np.array_equal(img[:, :, 0], img[:, :, 2])

    def test_textures_are_zero_sum_and_distinct(self):
        for cell in TEXTURE_CELLS:
            assert cell.sum() == 0
        flat = {cell.tobytes() for cell in TEXTURE_CELLS}
        assert len(flat) == 4

    def test_shapes_are_distinct_and_nonempty(self):
        flat = {m.tobytes() for m in SHAPE_MASKS}
        assert len(flat) == 4
        for m in SHAPE_MASKS:
            assert m.sum() > 10

    def test_filters_reconstruct_image(self):
        img = render_complementary(32, 1, 3, 0, 4, 62, 188)
        px = image_from_u8(img).pixels
        lp = lowpass_pixels(px, CELL)
        hp = highpass_pixels(px, CELL)
        assert np.allclose(lp + hp, px, atol=1e-15)

    def test_lowpass_blind_to_texture_fresh_nuisances(self):
        # independent spot check with nuisance values the library's own
        # verifier does not use
        for s in range(4):
            views = set()
            for t in range(4):
                img = render_complementary(32, s, t, 1, 3, 78, 172)
                views.add(lowpass_pixels(image_from_u8(img).pixels,
                                         CELL).tobytes())
            assert len(views) == 1

    def test_highpass_blind_to_shape_fresh_nuisances(self):
        for t in range(4):
            views = set()
            for s in range(4):
                for jx, jy, bg, fg in ((0, 1, 70, 188), (3, 3, 62, 180)):
                    img = render_complementary(32, s, t, jx, jy, bg, fg)
                    views.add(highpass_pixels(image_from_u8(img).pixels,
                                              CELL).tobytes())
            assert len(views) == 1

    def test_verifier_reports_marginal_bounds(self):
        bounds = verify_complementary_blindness(32)
        assert bounds == {"mean_view_bound": 0.25,
                          "residual_view_bound": 0.25}

    def test_encoder_level_blindness(self):
        # the whole argument: a lowpass branch produces bit-identical
        # features when only texture changes, so no model on top of it
        # can exceed the texture marginal; same for highpass and shape
        cfg_lp = EncoderConfig(patch_size=4, embed_dim=8, depth=1,
                               heads=2, grid_side=8, unshuffle_r=2,
                               input_filter="lowpass", filter_block=CELL)
        cfg_hp = EncoderConfig(patch_size=2, embed_dim=8, depth=1,
                               heads=2, grid_side=16, unshuffle_r=4,
                               input_filter="highpass", filter_block=CELL)
        enc_lp = Encoder(cfg_lp, "encoderA", seed=3)
        enc_hp = Encoder(cfg_hp, "encoderB", seed=4)

        def tiles(s, t):
            img = image_from_u8(render_complementary(32, s, t, 2, 2,
                                                     70, 180))
            return segment(img, 32, 6)

        def encode(enc, tiles):
            return enc.encode(tiles, enc.patch_rows(tiles))

        lp_views = {encode(enc_lp, tiles(1, t)).data.tobytes()
                    for t in range(4)}
        assert len(lp_views) == 1
        hp_views = {encode(enc_hp, tiles(s, 2)).data.tobytes()
                    for s in range(4)}
        assert len(hp_views) == 1
        # and each branch does see its own factor
        lp_shapes = {encode(enc_lp, tiles(s, 0)).data.tobytes()
                     for s in range(4)}
        assert len(lp_shapes) == 4
        hp_textures = {encode(enc_hp, tiles(0, t)).data.tobytes()
                       for t in range(4)}
        assert len(hp_textures) == 4


class TestComplementaryGeneration:
    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            generate_complementary(TaskSpec(
                kind="complementary", image_size=(32, 16), tile_size=32,
                n_classes=16, n_train=4, n_eval=0, seed=0))
        with pytest.raises(ConfigError):
            generate_complementary(TaskSpec(
                kind="complementary", image_size=(10, 10), tile_size=32,
                n_classes=16, n_train=4, n_eval=0, seed=0))
        with pytest.raises(ConfigError):
            generate_complementary(TaskSpec(
                kind="complementary", image_size=(32, 32), tile_size=32,
                n_classes=8, n_train=4, n_eval=0, seed=0))
        with pytest.raises(ConfigError):
            generate_complementary(detail_spec())

    def test_sizes_below_the_blindness_check_rejected(self):
        # the blindness check places a 12-block shape up to 4 blocks in,
        # so a side under 16 blocks (32 px) is a ConfigError, not an
        # IndexError from render_complementary
        for side in (24, 26, 28, 30):
            with pytest.raises(ConfigError, match="image_size"):
                TaskSpec(kind="complementary", image_size=(side, side),
                         tile_size=32, n_classes=16, n_train=4, n_eval=0,
                         seed=0)
        data = generate_complementary(TaskSpec(
            kind="complementary", image_size=(32, 32), tile_size=32,
            n_classes=16, n_train=4, n_eval=0, seed=0))
        assert len(data.train) == 4

    def test_deterministic_per_seed(self):
        a = generate_complementary(comp_spec(n_train=32, n_eval=16))
        b = generate_complementary(comp_spec(n_train=32, n_eval=16))
        for sa, sb in zip(a.train + a.eval, b.train + b.eval):
            assert sa.question == sb.question
            assert sa.answer == sb.answer
            assert sa.images[0].pixels.tobytes() == \
                sb.images[0].pixels.tobytes()
        c = generate_complementary(comp_spec(n_train=32, n_eval=16,
                                             seed=8))
        assert any(
            sa.images[0].pixels.tobytes() != sc.images[0].pixels.tobytes()
            for sa, sc in zip(a.train, c.train))

    def test_exact_class_balance(self):
        data = generate_complementary(comp_spec(n_train=160, n_eval=80))
        for split in (data.train, data.eval):
            counts = {}
            for s in split:
                counts[s.answer] = counts.get(s.answer, 0) + 1
            assert sorted(counts) == list(ANSWER_ALPHABET[:16])
            assert len(set(counts.values())) == 1

    def test_sample_shape_and_question(self):
        data = generate_complementary(comp_spec(n_train=16, n_eval=0))
        for s in data.train:
            assert s.question == "class?"
            assert len(s.images) == 1
            assert s.images[0].pixels.shape == (32, 32, 3)

    def test_oracle_is_exact_on_generated_data(self):
        data = generate_complementary(comp_spec(n_train=64, n_eval=32))
        for s in data.train + data.eval:
            assert complementary_oracle(s) == s.answer


class TestFrequencySeparation:
    def good_pair(self):
        a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                          grid_side=8, unshuffle_r=2,
                          input_filter="lowpass", filter_block=2)
        b = EncoderConfig(patch_size=2, embed_dim=8, depth=1, heads=2,
                          grid_side=16, unshuffle_r=4,
                          input_filter="highpass", filter_block=2)
        return a, b

    def test_good_pair_accepted(self):
        a, b = self.good_pair()
        check_frequency_separation(a, b)

    def test_missing_filters_rejected(self):
        a, b = self.good_pair()
        plain = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                              grid_side=8, unshuffle_r=2)
        with pytest.raises(ConfigError):
            check_frequency_separation(plain, b)
        with pytest.raises(ConfigError):
            check_frequency_separation(a, plain)

    def test_equal_patch_sizes_rejected(self):
        a, _ = self.good_pair()
        b_coarse = EncoderConfig(patch_size=4, embed_dim=8, depth=1,
                                 heads=2, grid_side=8, unshuffle_r=2,
                                 input_filter="highpass", filter_block=2)
        with pytest.raises(ConfigError) as err:
            check_frequency_separation(a, b_coarse)
        assert "coarser" in str(err.value)


class TestGlyphs:
    def test_popcounts_equal(self):
        counts = GLYPH_MASKS.sum(axis=(1, 2))
        assert np.all(counts == GLYPH_POPCOUNT)

    def test_bbox_templates_pairwise_distinct(self):
        from tilefusion.datagen import _bbox_crop

        crops = [_bbox_crop(m) for m in GLYPH_MASKS]
        for i in range(len(crops)):
            for j in range(i + 1, len(crops)):
                same = (crops[i].shape == crops[j].shape
                        and np.array_equal(crops[i], crops[j]))
                assert not same, (i, j)


class TestTileDetailGeneration:
    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            generate_tile_detail(TaskSpec(
                kind="tile-detail", image_size=(90, 64), tile_size=32,
                n_classes=8, n_train=4, n_eval=0, seed=0))
        with pytest.raises(ConfigError):
            generate_tile_detail(TaskSpec(
                kind="tile-detail", image_size=(32, 32), tile_size=32,
                n_classes=8, n_train=4, n_eval=0, seed=0))
        with pytest.raises(ConfigError):
            generate_tile_detail(TaskSpec(
                kind="tile-detail", image_size=(96, 64), tile_size=32,
                n_classes=9, n_train=4, n_eval=0, seed=0))
        with pytest.raises(ConfigError):
            generate_tile_detail(TaskSpec(
                kind="tile-detail", image_size=(32, 16), tile_size=8,
                n_classes=8, n_train=4, n_eval=0, seed=0))
        with pytest.raises(ConfigError):
            generate_tile_detail(comp_spec())

    def test_deterministic_per_seed(self):
        a = generate_tile_detail(detail_spec(n_train=12, n_eval=6))
        b = generate_tile_detail(detail_spec(n_train=12, n_eval=6))
        for sa, sb in zip(a.train + a.eval, b.train + b.eval):
            assert sa.question == sb.question
            assert sa.answer == sb.answer
            assert sa.images[0].pixels.tobytes() == \
                sb.images[0].pixels.tobytes()

    def test_exact_answer_balance(self):
        data = generate_tile_detail(detail_spec(n_train=96, n_eval=48))
        for split in (data.train, data.eval):
            counts = {}
            for s in split:
                counts[s.answer] = counts.get(s.answer, 0) + 1
            assert sorted(counts) == list(ANSWER_ALPHABET[:8])
            assert len(set(counts.values())) == 1

    def test_question_names_a_cell_in_range(self):
        data = generate_tile_detail(detail_spec(n_train=40, n_eval=0))
        import re
        pat = re.compile(r"^tile r([01])c([012])\?$")
        assert {tile_detail_question(0, 2)} == {"tile r0c2?"}
        for s in data.train:
            assert pat.match(s.question), s.question

    def test_every_cell_holds_one_glyph(self):
        data = generate_tile_detail(detail_spec(n_train=6, n_eval=0))
        for s in data.train:
            img = image_to_u8(s.images[0])
            for r in range(2):
                for c in range(3):
                    cell = img[r * 32:(r + 1) * 32, c * 32:(c + 1) * 32]
                    lit = cell.max(axis=2) > 128
                    assert lit.sum() == GLYPH_POPCOUNT

    def test_oracle_is_exact_on_generated_data(self):
        spec = detail_spec(n_train=64, n_eval=32)
        data = generate_tile_detail(spec)
        for s in data.train + data.eval:
            assert tile_detail_oracle(s, spec) == s.answer

    def test_glyph_color_independent_of_class(self):
        # collect the colors used for the queried glyph of one class;
        # more than one palette entry must appear
        data = generate_tile_detail(detail_spec(n_train=96, n_eval=0))
        colors = set()
        for s in data.train:
            if s.answer != "a":
                continue
            img = image_to_u8(s.images[0])
            import re
            m = re.match(r"^tile r(\d)c(\d)\?$", s.question)
            r, c = int(m.group(1)), int(m.group(2))
            cell = img[r * 32:(r + 1) * 32, c * 32:(c + 1) * 32]
            lit = cell.max(axis=2) > 128
            ys, xs = np.nonzero(lit)
            colors.add(tuple(cell[ys[0], xs[0]].tolist()))
        assert len(colors) > 1


def test_generate_dispatch():
    d1 = generate(comp_spec(n_train=16, n_eval=0))
    assert d1.train[0].question == "class?"
    d2 = generate(detail_spec(n_train=8, n_eval=0))
    assert d2.train[0].question.startswith("tile ")


@pytest.mark.parametrize("spec, planes", [
    (comp_spec(n_train=48, n_eval=16), 1),  # gray: one plane of bytes
    (detail_spec(n_train=24, n_eval=8), 3),
], ids=["complementary", "tile-detail"])
def test_dataset_holds_its_images_at_8_bits(spec, planes):
    # tracemalloc sees numpy's buffers: what a dataset keeps alive is
    # about its images' distinct bytes, not a float64 copy of them (8x)
    # nor, for a gray image, three copies of its one plane
    generate(spec)  # warm-up, so one-time tables are not counted
    tracemalloc.start()
    try:
        data = generate(spec)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    images = [img for s in data.train + data.eval for img in s.images]
    u8_bytes = sum(img.height * img.width * planes for img in images)
    assert held <= 2 * u8_bytes, held / u8_bytes
    for img in images:
        owner = img._data
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == img.height * img.width * planes


def test_dataset_save_load_round_trip(tmp_path):
    data = generate_complementary(comp_spec(n_train=6, n_eval=0))
    index = save_dataset(data.train, str(tmp_path), "train")
    assert os.path.basename(index) == "train.jsonl"
    with open(index) as f:
        rows = [json.loads(line) for line in f]
    assert len(rows) == 6
    assert set(rows[0]) == {"images", "question", "answer"}
    for row in rows:
        for rel in row["images"]:
            assert os.path.exists(os.path.join(str(tmp_path), rel))
    loaded = load_dataset(index)
    assert len(loaded) == 6
    assert loaded == data.train  # images compare by content_key
    for a, b in zip(data.train, loaded):
        assert a.question == b.question
        assert a.answer == b.answer
        assert a.images[0].pixels.tobytes() == b.images[0].pixels.tobytes()


def test_sample_is_plain_data():
    s = Sample(images=[], question="q", answer="a")
    assert s.question == "q"
