"""End-to-end pipeline tests: wiring, naming, freezing, and gradients.

The encoders are frozen, forward-only array code, so the gradient tests
cover the projectors, the fusion map and the LM, and pin that no
encoder parameter ever receives a gradient.
"""

import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from tilefusion import tensor as tz
from tilefusion.assembly import IMG_CONTEXT_ID, VOCAB_SIZE
from tilefusion.datagen import Sample
from tilefusion.encoders import EncoderConfig, pixel_unshuffle
from tilefusion.errors import BudgetError, ConfigError
from tilefusion.experiment import build_pipeline_config, load_config
from tilefusion.fusion import project
from tilefusion.lm import LanguageModel, LMConfig
from tilefusion.model import ENCODER_CHOICES, Pipeline, PipelineConfig
from tilefusion.tensor import finite_difference_grad_at
from tilefusion.tiling import ImageBuffer, image_from_u8
from tilefusion.training import StageConfig, TrainingConfig, snapshot

from fusion_oracle import provenance
from oracle_ops import backward, relative_error
from per_image_oracle import (branch_tokens, uncached_batch, uncached_loss,
                              uncached_tokens)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "..", "configs")

ENCODER_PREFIXES = ("encoderA.", "encoderB.")
KNOWN_PREFIXES = ("encoderA.", "encoderB.", "projectorA.", "projectorB.",
                  "projector_shared.", "fusion.down", "lm.")


def desk_cfg(encoders="A+B", fusion="post-interleave", max_tiles=6,
             thumbnail=True, ctx=160, embed_b=8):
    enc_a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                          grid_side=8, unshuffle_r=2)
    enc_b = EncoderConfig(patch_size=2, embed_dim=embed_b, depth=1, heads=2,
                          grid_side=16, unshuffle_r=4)
    return PipelineConfig(
        encoder_a=enc_a,
        encoder_b=enc_b,
        lm=LMConfig(d_lm=16, layers=1, heads=2, context_limit=ctx),
        max_tiles=max_tiles,
        thumbnail=thumbnail,
        encoders=encoders,
        fusion=fusion,
        projector_hidden=8,
    )


def encode_image(pipe, img):
    """One image's fused visual sequence, through the batch path."""
    return pipe.fuse_images([branch_tokens(pipe, img)])


def sample_loss(pipe, images, question, answer):
    """Training's loss for one sample, on its uncached branch tokens."""
    return uncached_loss(pipe, [Sample(images, question, answer)])


def landscape_image(seed=0, h=32, w=64):
    rng = np.random.default_rng(seed)
    return ImageBuffer(rng.random((h, w, 3)))


class TestConfigValidation:
    def test_bad_encoder_choice_rejected(self):
        with pytest.raises(ConfigError):
            desk_cfg(encoders="C")
        with pytest.raises(ConfigError):
            desk_cfg(encoders="B+A")

    def test_bad_fusion_kind_rejected(self):
        with pytest.raises(ConfigError):
            desk_cfg(fusion="mid-layer")

    def test_tile_size_must_match_used_encoders(self):
        enc_a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                              grid_side=8, unshuffle_r=2)
        enc_b = EncoderConfig(patch_size=2, embed_dim=8, depth=1, heads=2,
                              grid_side=8, unshuffle_r=4)
        # 32px tiles for A, 16px for B: A+B is reported under encoder_b
        with pytest.raises(ConfigError,
                           match=r"encoder_b: expects 16px .* encoder_a 32px"):
            PipelineConfig(encoder_a=enc_a, encoder_b=enc_b,
                           lm=LMConfig(d_lm=16, layers=1, heads=2))
        # unused branch is never checked against the tile side
        cfg = PipelineConfig(encoder_a=enc_a, encoder_b=enc_b,
                             lm=LMConfig(d_lm=16, layers=1, heads=2),
                             encoders="A", fusion="post-interleave")
        assert cfg.encoders == "A"

    @pytest.mark.parametrize("encoders, side_b",
                             [("A", 16), ("B", 16), ("A+B", 32)])
    def test_tile_size_is_the_used_encoders_tile_side(self, encoders,
                                                      side_b):
        # A reads 32px tiles; B's 2px patches give side_b
        cfg = desk_cfg(encoders=encoders)
        cfg = replace(cfg, encoder_b=replace(cfg.encoder_b,
                                             grid_side=side_b // 2))
        for label, enc in (("A", cfg.encoder_a), ("B", cfg.encoder_b)):
            if label in encoders:
                assert cfg.tile_size == enc.patch_size * enc.grid_side

    def test_pre_sequence_needs_equal_widths(self):
        with pytest.raises(ConfigError):
            desk_cfg(fusion="pre-sequence")
        cfg = desk_cfg(fusion="pre-sequence", embed_b=2)
        assert cfg.width_a == cfg.width_b == 32

    def test_channel_fusions_need_equal_token_counts(self):
        enc_a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                              grid_side=8, unshuffle_r=2)
        enc_b = EncoderConfig(patch_size=2, embed_dim=8, depth=1, heads=2,
                              grid_side=16, unshuffle_r=2)
        with pytest.raises(ConfigError):
            PipelineConfig(encoder_a=enc_a, encoder_b=enc_b,
                           lm=LMConfig(d_lm=16, layers=1, heads=2),
                           fusion="post-channel")

    def test_filter_block_must_divide_tile_size(self):
        # the filters run on whole tiles: a block that does not divide
        # the tile would fail on the first image, after validation
        def with_filter(key, block, encoders="A+B"):
            cfg = desk_cfg()
            enc = replace(getattr(cfg, key), input_filter="lowpass",
                          filter_block=block)
            return replace(cfg, encoders=encoders, **{key: enc})

        with pytest.raises(ConfigError, match="encoder_a.filter_block"):
            with_filter("encoder_a", 3)
        with pytest.raises(ConfigError, match="encoder_b.filter_block"):
            with_filter("encoder_b", 5)
        assert with_filter("encoder_a", 4).encoder_a.filter_block == 4
        # an unused branch, or one with no filter, is not checked
        assert with_filter("encoder_b", 3, encoders="A").encoders == "A"
        cfg = desk_cfg()
        assert replace(cfg, encoder_a=replace(cfg.encoder_a,
                                              filter_block=3))

    def test_filter_block_checked_on_shipped_tile_detail_config(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "tile-detail-tiled.json"))
        model = dict(cfg["model"])
        model["encoder_a"] = {**model["encoder_a"], "input_filter": "lowpass",
                              "filter_block": 3}
        with pytest.raises(ConfigError, match="filter_block"):
            build_pipeline_config(model)
        model["encoder_a"]["filter_block"] = 4
        assert build_pipeline_config(model).encoder_a.filter_block == 4

    def test_token_count_helper(self):
        assert desk_cfg().tokens_per_tile() == 32
        assert desk_cfg(fusion="post-channel").tokens_per_tile() == 16
        assert desk_cfg(fusion="pre-channel").tokens_per_tile() == 16
        assert desk_cfg(encoders="A").tokens_per_tile() == 16
        assert desk_cfg(encoders="B").tokens_per_tile() == 16


class TestParameterWiring:
    def test_names_unique_and_namespaced(self):
        pipe = Pipeline(desk_cfg(fusion="post-channel"), seed=0)
        names = [p.name for p in pipe.parameters()]
        assert len(names) == len(set(names))
        for name in names:
            assert any(name == pre or name.startswith(pre)
                       for pre in KNOWN_PREFIXES), name
        assert "fusion.down" in names
        assert not any(n.startswith("projector_shared.") for n in names)

    def test_interleave_has_no_down_map(self):
        names = [p.name for p in Pipeline(desk_cfg(), seed=0).parameters()]
        assert "fusion.down" not in names
        assert any(n.startswith("projectorA.") for n in names)
        assert any(n.startswith("projectorB.") for n in names)

    def test_pre_fusion_uses_one_shared_projector(self):
        pipe = Pipeline(desk_cfg(fusion="pre-channel"), seed=0)
        names = [p.name for p in pipe.parameters()]
        assert any(n.startswith("projector_shared.") for n in names)
        assert not any(n.startswith("projectorA.") for n in names)
        assert not any(n.startswith("projectorB.") for n in names)
        assert "fusion.down" not in names

    def test_single_branch_builds_only_its_components(self):
        pipe = Pipeline(desk_cfg(encoders="A"), seed=0)
        names = [p.name for p in pipe.parameters()]
        assert any(n.startswith("encoderA.") for n in names)
        assert not any(n.startswith("encoderB.") for n in names)
        assert not any(n.startswith("projectorB.") for n in names)
        assert pipe.encoder_b is None

    def test_same_seed_gives_identical_shared_components(self):
        a_only = Pipeline(desk_cfg(encoders="A"), seed=5)
        both = Pipeline(desk_cfg(), seed=5)
        by_name = {p.name: p for p in both.parameters()}
        for p in a_only.parameters():
            if p.name.startswith("lm."):
                continue
            assert p.data.tobytes() == by_name[p.name].data.tobytes(), p.name

    def test_shipped_init_is_golden(self):
        # Recorded before the encoder and LM blocks became one shared
        # block; numpy's Generator makes the draws platform-independent.
        # A change means renamed, reordered or re-drawn parameters, and
        # old checkpoints and seeds would no longer mean what they did.
        cfg = load_config(os.path.join(CONFIG_DIR,
                                       "complementary-hybrid.json"))
        pipe = Pipeline(build_pipeline_config(cfg["model"]), seed=0)
        names = "\n".join(p.name for p in pipe.parameters()).encode()
        blob = snapshot(pipe, 0, "stage1").blob
        assert hashlib.sha256(names).hexdigest() == (
            "1fdb29c40795f677a9d257220851a65fc6b89fd535aa0be0913f4d52d1919b6e")
        assert hashlib.sha256(blob).hexdigest() == (
            "3fb0af95a20d512aa19b327379e18b0098e29c13945f2de0607239d6c3cf0c82")

    def test_set_frozen_matches_prefixes_exactly(self):
        pipe = Pipeline(desk_cfg(), seed=0)
        pipe.set_frozen(["encoderA.", "encoderB.", "lm."])
        for p in pipe.parameters():
            want = p.name.startswith(("encoderA.", "encoderB.", "lm."))
            assert p.frozen == want, p.name
        pipe.set_frozen(["encoderA."])
        for p in pipe.parameters():
            assert p.frozen == p.name.startswith("encoderA."), p.name


class TestForward:
    def test_visual_token_counts_per_variant(self):
        img = landscape_image()
        for fusion, per_tile in (("post-interleave", 32),
                                 ("post-channel", 16)):
            pipe = Pipeline(desk_cfg(fusion=fusion), seed=1)
            seq = encode_image(pipe, img)
            assert seq.n_tokens == 3 * per_tile
            assert seq.width == 16
        pipe = Pipeline(desk_cfg(encoders="B"), seed=1)
        assert encode_image(pipe, img).n_tokens == 3 * 16

    def test_single_branch_equals_manual_projection(self):
        pipe = Pipeline(desk_cfg(encoders="A"), seed=9)
        img = landscape_image(3)
        tiles = pipe.segment_image(img)
        grid = pipe.encoder_a.encode(tiles, pipe.encoder_a.patch_rows(tiles))
        manual = project(pipe.projector_a, pixel_unshuffle(grid, 2), "A")
        got = encode_image(pipe, img)
        assert got.embeddings.tobytes() == manual.embeddings.tobytes()
        assert provenance(got) == provenance(manual)

    def test_tiling_off_forces_single_tile(self):
        img = landscape_image()
        on = Pipeline(desk_cfg(), seed=0)
        off = Pipeline(desk_cfg(max_tiles=1), seed=0)
        assert on.segment_image(img).patch_count == 3
        ts = off.segment_image(img)
        assert ts.patch_count == 1
        assert ts.thumbnail is None
        assert encode_image(off, img).n_tokens == 32

    def test_zero_head_loss_is_uniform(self):
        # an all-zero head makes every next-token distribution uniform,
        # so the masked loss is exactly log(vocab) through the full pipe
        pipe = Pipeline(desk_cfg(), seed=0)
        pipe.lm.head.data[...] = 0.0
        loss = sample_loss(pipe, [landscape_image()], "what?", "ab")
        assert abs(loss.item() - math.log(VOCAB_SIZE)) < 1e-9

    def test_forward_deterministic_per_seed(self):
        img = landscape_image(4)
        losses = []
        for seed in (7, 7, 8):
            pipe = Pipeline(desk_cfg(fusion="post-channel"), seed=seed)
            rng = np.random.default_rng(0)
            pipe.lm.head.data = rng.standard_normal(
                pipe.lm.head.data.shape) * 0.05
            losses.append(sample_loss(pipe, [img], "q", "a").item())
        assert losses[0] == losses[1]
        assert losses[0] != losses[2]

    def test_budget_overflow_is_hard_error(self):
        pipe = Pipeline(desk_cfg(ctx=100), seed=0)
        with pytest.raises(BudgetError):
            sample_loss(pipe, [landscape_image()], "what?", "ab")

    def test_answer_returns_decoded_string(self):
        pipe = Pipeline(desk_cfg(), seed=2)
        text = pipe.answer([landscape_image()], "q", max_new=4)
        assert isinstance(text, str)
        assert len(text) <= 4

    def test_answer_builds_no_graph(self, monkeypatch):
        # the prompt is spliced on arrays; every decode step then runs
        # on plain arrays
        prompts, steps = [], []
        decode, step = LanguageModel.greedy_decode, LanguageModel.decode_step

        def decode_spy(self, batch, *args, **kwargs):
            prompts.append(batch.embeddings)
            return decode(self, batch, *args, **kwargs)

        def step_spy(self, x, cache):
            out = step(self, x, cache)
            steps.append((x, out))
            return out

        monkeypatch.setattr(LanguageModel, "greedy_decode", decode_spy)
        monkeypatch.setattr(LanguageModel, "decode_step", step_spy)
        pipe = Pipeline(desk_cfg(), seed=2)
        pipe.answer([landscape_image()], "q", max_new=4)
        [embeddings] = prompts
        assert type(embeddings) is np.ndarray
        assert steps
        for x, logits in steps:
            assert type(x) is np.ndarray and type(logits) is np.ndarray

    def test_answer_builds_no_graph_node_and_leaves_parameters_as_found(
            self):
        pipe = Pipeline(desk_cfg(fusion="post-channel"), seed=2)
        params = pipe.parameters()
        rng = np.random.default_rng(3)
        # a mix of earlier states: frozen or not, with a gradient buffer
        # or none
        for p in params[::3]:
            p.frozen = True
        for p in params[::2]:
            p.grad = rng.standard_normal(p.shape)
        before = [(p.frozen, p.grad,
                   None if p.grad is None else p.grad.tobytes())
                  for p in params]
        pipe.answer([landscape_image(), landscape_image(1, w=32)], "q",
                    max_new=3)
        after = [(p.frozen, p.grad,
                  None if p.grad is None else p.grad.tobytes())
                 for p in params]
        for (flag, grad, data), (flag2, grad2, data2) in zip(before, after):
            assert flag2 == flag and grad2 is grad and data2 == data

    def test_two_images_double_the_visual_tokens(self):
        pipe = Pipeline(desk_cfg(ctx=300), seed=0)
        img = landscape_image()
        seq = uncached_batch(pipe, [Sample([img, img], "q", "a")])
        civilian = uncached_batch(pipe, [Sample([img], "q", "a")])

        def n_visual(batch):
            return int((batch.token_ids == IMG_CONTEXT_ID).sum())

        assert n_visual(seq) == 2 * n_visual(civilian) == 192


class TestFullPipelineGradients:
    def test_end_to_end_gradcheck_two_tile_model(self):
        # 2 tiles, 2 fused tokens per tile: branch A contributes one
        # token per tile, branch B one token per tile
        enc_a = EncoderConfig(patch_size=2, embed_dim=4, depth=1, heads=2,
                              grid_side=2, unshuffle_r=2)
        enc_b = EncoderConfig(patch_size=1, embed_dim=4, depth=1, heads=2,
                              grid_side=4, unshuffle_r=4)
        cfg = PipelineConfig(
            encoder_a=enc_a, encoder_b=enc_b,
            lm=LMConfig(d_lm=8, layers=1, heads=2, context_limit=32),
            max_tiles=6, thumbnail=False,
            fusion="post-interleave", projector_hidden=4)
        pipe = Pipeline(cfg, seed=3)
        rng = np.random.default_rng(11)
        # widen the head so upstream gradients sit well above the
        # relative-error comparison floor
        pipe.lm.head.data = rng.standard_normal(pipe.lm.head.data.shape) * 0.1

        img = ImageBuffer(np.random.default_rng(5).random((4, 8, 3)))
        seq = encode_image(pipe, img)
        assert seq.n_tokens == 4

        def loss_value(_ignored=None):
            return sample_loss(pipe, [img], "q", "ab")

        loss = loss_value()
        backward(loss)

        d = 8
        used_rows = [257, 259, 260, ord("q"), ord("a"), ord("b"), 258]
        worst = 0.0
        for p in pipe.parameters():
            if p.name.startswith(ENCODER_PREFIXES):
                assert p.grad is None, p.name
                continue
            n = p.data.size
            picks = set(rng.choice(n, size=min(6, n), replace=False).tolist())
            if p.name == "lm.embed":
                picks.update(row * d + (row % d) for row in used_rows)
            idx = sorted(picks)
            fd = finite_difference_grad_at(loss_value, p, idx)
            got = p.grad.reshape(-1)[idx]
            err = relative_error(got, fd)
            assert err < 1e-4, f"{p.name}: {err}"
            worst = max(worst, err)
        assert worst > 0.0

    def test_gradients_reach_every_component(self):
        cfg = desk_cfg(fusion="post-channel")
        pipe = Pipeline(cfg, seed=1)
        rng = np.random.default_rng(2)
        pipe.lm.head.data = rng.standard_normal(pipe.lm.head.data.shape) * 0.1
        loss = sample_loss(pipe, [landscape_image(8)], "q", "zz")
        backward(loss)
        touched = {pre: 0.0 for pre in ("projectorA.", "projectorB.",
                                        "fusion.down", "lm.")}
        for p in pipe.parameters():
            for pre in touched:
                if p.name.startswith(pre):
                    touched[pre] = max(touched[pre],
                                       float(np.abs(p.grad).max()))
        for pre, mag in touched.items():
            assert mag > 0.0, f"no gradient reached {pre}"

    @pytest.mark.parametrize("freeze", ["stage1", "stage2",
                                        "freeze_vision_adapters"])
    def test_frozen_parameters_take_no_gradient(self, freeze):
        # freezing is the one flag set_frozen writes: a step's backward,
        # run outside run_stage, leaves every frozen grad None, and
        # gradient still flows through a frozen LM to the projectors
        pipe = Pipeline(desk_cfg(fusion="post-channel"), seed=1)
        rng = np.random.default_rng(2)
        pipe.lm.head.data[...] = rng.standard_normal(pipe.lm.head.shape) * 0.1
        params = pipe.parameters()
        training = TrainingConfig(
            StageConfig(steps=1), StageConfig(steps=1),
            freeze_vision_adapters=freeze == "freeze_vision_adapters")
        plans, _ = training.plans([p.name for p in params])
        pipe.set_frozen((plans[-1] if freeze == "stage2" else plans[0])
                        .frozen_prefixes)
        samples = [Sample([landscape_image(8)], "q", "y")]
        _, step_backward = pipe.loss(samples,
                                     uncached_tokens(pipe, samples))
        tz.backward(step_backward)
        assert any(p.frozen for p in params)
        for p in params:
            assert (p.grad is None) == p.frozen, p.name
        if freeze == "stage1":
            assert all(p.frozen for p in params if p.name.startswith("lm."))
            for p in pipe._adapter_parameters():
                assert np.abs(p.grad).max() > 0, p.name

    @pytest.mark.parametrize("fusion", ["post-interleave", "post-channel",
                                        "pre-channel"])
    def test_encoders_never_enter_a_graph(self, fusion):
        # no parameter is frozen, yet the encoders, forward-only array
        # code, get nothing, whether their tokens come from the caches or
        # a fresh encode
        pipe = Pipeline(desk_cfg(fusion=fusion), seed=1)
        params = pipe.parameters()
        assert not any(p.frozen for p in params)
        samples = [Sample([landscape_image(8)], "q", "y"),
                   Sample([landscape_image(9)], "which?", "zz")]
        cached = [[pipe.frozen_tokens(img) for img in s.images]
                  for s in samples]
        for tokens in (cached, uncached_tokens(pipe, samples)):
            for p in params:
                p.grad = None
            tz.backward(pipe.loss(samples, tokens)[1])
            for p in params:
                if p.name.startswith(ENCODER_PREFIXES):
                    assert p.grad is None, p.name
                else:
                    assert p.grad is not None, p.name


@pytest.mark.parametrize("u8_first", [True, False])
def test_u8_image_shares_frozen_tokens_with_its_float_twin(u8_first):
    # both read as the same float64 pixels, so they share one content_key
    # and one token_cache entry, whichever is seen first
    pipe = Pipeline(desk_cfg(), seed=1)
    arr = np.random.default_rng(3).integers(0, 256, (32, 64, 3),
                                            dtype=np.uint8)
    twins = [image_from_u8(arr), ImageBuffer(arr.astype(np.float64) / 255.0)]
    if not u8_first:
        twins.reverse()
    first = pipe.frozen_tokens(twins[0])
    second = pipe.frozen_tokens(twins[1])
    assert second is first and len(pipe.token_cache) == 1
    assert sorted(first) == ["A", "B"]
    assert all(second[label] is first[label] for label in first)


def test_encoder_choices_registry():
    assert ENCODER_CHOICES == ("A", "B", "A+B")
