"""Acceptance tests: the guarantees the package ships with.

One test per guarantee, each at its full tolerance. The first six and
the last two are fast; the two experiment tests train real models on
the shipped configs and take a few minutes each.
"""

import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

import tilefusion.tensor as tz
from tilefusion.assembly import (
    IMG_CONTEXT_ID,
    VOCAB_SIZE,
    ByteTokenizer,
    build_prompt,
    splice,
)
from tilefusion.datagen import verify_complementary_blindness
from tilefusion.encoders import EncoderConfig, pixel_unshuffle
from tilefusion.errors import BudgetError
from tilefusion.experiment import load_config, run_experiment
from tilefusion.fusion import (
    VisualSequence,
    fuse_post_channel,
    fuse_post_interleave,
)
from tilefusion.lm import LMConfig
from tilefusion.model import Pipeline, PipelineConfig
from tilefusion.tensor import finite_difference_grad_at
from tilefusion.tiling import ImageBuffer, TileGrid, segment, select_grid
from tilefusion.training import (
    Checkpoint,
    restore,
    run_stage,
    stage_plan,
)

from fusion_oracle import provenance
from oracle_ops import relative_error
from per_image_oracle import pixel_shuffle, uncached_tokens

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "..", "configs")


def shipped(name):
    return load_config(os.path.join(CONFIG_DIR, name + ".json"))


@dataclass
class Sample:
    images: list
    question: str
    answer: str


def desk_pipe(seed=3):
    enc_a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                          grid_side=4, unshuffle_r=2)
    enc_b = EncoderConfig(patch_size=2, embed_dim=8, depth=1, heads=2,
                          grid_side=8, unshuffle_r=2)
    cfg = PipelineConfig(
        encoder_a=enc_a, encoder_b=enc_b,
        lm=LMConfig(d_lm=16, layers=1, heads=2, context_limit=96),
        max_tiles=4, fusion="post-interleave", projector_hidden=8)
    return Pipeline(cfg, seed=seed)


def one_batch_dataset(n=4, seed=100):
    rng = np.random.default_rng(seed)
    answers = "abcd"
    return [Sample([ImageBuffer(rng.random((16, 16, 3)))], "which?",
                   answers[i % 4]) for i in range(n)]


def param_bytes(model, prefixes):
    return {p.name: p.data.tobytes() for p in model.parameters()
            if p.name.startswith(tuple(prefixes))}


def fake_clock():
    t = [0.0]

    def tick():
        t[0] += 0.001
        return t[0]

    return tick


def test_full_scale_token_arithmetic():
    t0 = time.perf_counter()
    branch_a = EncoderConfig(patch_size=14, embed_dim=8, depth=1, heads=2,
                             grid_side=32, unshuffle_r=2)
    branch_b = EncoderConfig(patch_size=7, embed_dim=8, depth=1, heads=2,
                             grid_side=64, unshuffle_r=4)
    assert branch_a.tile_side == branch_b.tile_side == 448
    assert branch_a.tokens_per_tile == 256
    assert branch_b.tokens_per_tile == 256
    fused = PipelineConfig(encoder_a=branch_a, encoder_b=branch_b,
                           lm=LMConfig(d_lm=16, layers=1, heads=2))
    assert fused.tile_size == 448
    assert fused.tokens_per_tile() == 512

    # the count is realized by the operator, not just the formula
    out = pixel_unshuffle(np.zeros((1, 32, 32, 2)), 2)
    assert out.shape[1] == 256
    out_b = pixel_unshuffle(np.zeros((1, 64, 64, 2)), 4)
    assert out_b.shape[1] == 256
    assert time.perf_counter() - t0 < 1.0


def test_full_scale_tiling_arithmetic():
    t0 = time.perf_counter()
    assert select_grid(2048, 1280, 6) == TileGrid(cols=3, rows=2)

    first = segment(ImageBuffer(np.random.default_rng(1).random(
        (1280, 2048, 3))), 448, 6)
    assert first.grid == TileGrid(3, 2)
    assert len(first.tiles) == 6
    assert first.thumbnail is not None
    assert first.patch_count == 7
    for tile in first.patches:
        assert (tile.height, tile.width) == (448, 448)

    second = segment(ImageBuffer(np.random.default_rng(2).random(
        (896, 1344, 3))), 448, 6)
    assert first.patch_count + second.patch_count == 14
    assert time.perf_counter() - t0 < 1.0


def test_unshuffle_shape_law_and_exact_inverse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        b = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        r = int(rng.integers(1, 6))
        s = r * int(rng.integers(1, 5))
        x = rng.standard_normal((b, s, s, c))
        out = pixel_unshuffle(x, r)
        assert out.shape == (b, (s // r) ** 2, c * r * r)
        back = pixel_shuffle(out, r)
        assert back.tobytes() == x.tobytes()
    assert time.perf_counter() - t0 < 5.0


def test_fusion_invariants_hold_across_random_configs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(100):
        n_tiles = int(rng.integers(1, 5))
        ta = int(rng.integers(1, 6))
        tb = int(rng.integers(1, 6))
        d = int(rng.choice([4, 6, 8]))
        a = VisualSequence(rng.standard_normal((n_tiles * ta, d)),
                           n_tiles, (("A", ta),))
        b = VisualSequence(rng.standard_normal((n_tiles * tb, d)),
                           n_tiles, (("B", tb),))

        fused = fuse_post_interleave(a, b)
        assert fused.n_tokens == a.n_tokens + b.n_tokens
        assert fused.width == d

        # tile-block structure: per tile, the A block then the B block
        expected = []
        for t in range(n_tiles):
            expected.extend((t, "A", p) for p in range(ta))
            expected.extend((t, "B", p) for p in range(tb))
        prov = provenance(fused)
        assert prov == expected

        # order-preserving per-branch permutation, bit-exact rows
        rows = fused.embeddings
        a_rows = np.stack([rows[i] for i, (_, br, _)
                           in enumerate(prov) if br == "A"])
        b_rows = np.stack([rows[i] for i, (_, br, _)
                           in enumerate(prov) if br == "B"])
        assert a_rows.tobytes() == a.embeddings.tobytes()
        assert b_rows.tobytes() == b.embeddings.tobytes()

        # channel fusion length law: token count of one branch, same d
        b_aligned = VisualSequence(rng.standard_normal((n_tiles * ta, d)),
                                   n_tiles, (("B", ta),))
        down = tz.Parameter("fusion.down", rng.standard_normal((2 * d, d)))
        channel = fuse_post_channel(a, b_aligned, down)
        assert channel.n_tokens == a.n_tokens
        assert channel.width == d
    assert time.perf_counter() - t0 < 5.0


def test_end_to_end_gradients_match_finite_differences():
    t0 = time.perf_counter()
    enc_a = EncoderConfig(patch_size=4, embed_dim=4, depth=1, heads=2,
                          grid_side=2, unshuffle_r=2)
    enc_b = EncoderConfig(patch_size=2, embed_dim=4, depth=1, heads=2,
                          grid_side=4, unshuffle_r=4)
    cfg = PipelineConfig(
        encoder_a=enc_a, encoder_b=enc_b,
        lm=LMConfig(d_lm=6, layers=1, heads=2, context_limit=64),
        max_tiles=6, thumbnail=False,
        fusion="post-interleave", projector_hidden=4)
    pipe = Pipeline(cfg, seed=3)
    n_params = sum(p.data.size for p in pipe.parameters())
    assert 4000 < n_params < 7000

    rng = np.random.default_rng(11)
    # widen the head so upstream gradients sit above the error floor
    pipe.lm.head.data = rng.standard_normal(pipe.lm.head.data.shape) * 0.1
    img = ImageBuffer(np.random.default_rng(5).random((8, 16, 3)))

    samples = [Sample([img], "q", "ab")]

    def step():  # training's (value, backward) on uncached tokens
        return pipe.loss(samples, uncached_tokens(pipe, samples))

    def loss_value(_ignored=None):
        return step()[0]

    tz.backward(step()[1])

    d = cfg.lm.d_lm
    used_rows = [257, 259, 260, ord("q"), ord("a"), ord("b"), 258]
    worst = 0.0
    for p in pipe.parameters():
        # the encoders are frozen, forward-only array code: no gradient
        if p.name.startswith(("encoderA.", "encoderB.")):
            assert p.grad is None, p.name
            continue
        size = p.data.size
        picks = set(rng.choice(size, size=min(8, size),
                               replace=False).tolist())
        if p.name == "lm.embed":
            picks.update(row * d + (row % d) for row in used_rows)
        idx = sorted(picks)
        fd = finite_difference_grad_at(loss_value, p, idx)
        got = p.grad.reshape(-1)[idx]
        err = relative_error(got, fd)
        assert err < 1e-4, f"{p.name}: {err}"
        worst = max(worst, err)
    assert worst > 0.0
    assert time.perf_counter() - t0 < 60.0


def test_two_stage_freeze_semantics():
    t0 = time.perf_counter()
    pipe = desk_pipe(seed=3)
    data = one_batch_dataset(n=4)

    frozen_before = param_bytes(pipe, ("encoderA.", "encoderB.", "lm."))
    proj_before = param_bytes(pipe, ("projector",))
    plan = stage_plan("stage1", steps=56, warmup_steps=6, base_lr=2e-3)
    _, recs = run_stage(plan, pipe, data, seed=11, batch_size=len(data))

    assert param_bytes(pipe, ("encoderA.", "encoderB.", "lm.")) == \
        frozen_before
    proj_after = param_bytes(pipe, ("projector",))
    assert all(proj_after[k] != proj_before[k] for k in proj_before)

    post = [r.loss for r in recs[plan.warmup_steps:]]
    assert len(post) == 50
    assert all(a > b for a, b in zip(post, post[1:]))

    enc_before = param_bytes(pipe, ("encoderA.", "encoderB."))
    lm_before = param_bytes(pipe, ("lm.",))
    proj_before = param_bytes(pipe, ("projector",))
    _, recs2 = run_stage(stage_plan("stage2", steps=20, warmup_steps=2,
                                    base_lr=5e-4),
                         pipe, data, seed=12, batch_size=len(data))
    assert param_bytes(pipe, ("encoderA.", "encoderB.")) == enc_before
    lm_after = param_bytes(pipe, ("lm.",))
    assert any(lm_after[k] != lm_before[k] for k in lm_before)
    proj_after = param_bytes(pipe, ("projector",))
    assert any(proj_after[k] != proj_before[k] for k in proj_before)
    assert recs2[-1].loss < recs2[0].loss
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.slow
def test_hybrid_beats_either_single_branch():
    t0 = time.perf_counter()
    hybrid_cfg = shipped("complementary-hybrid")
    a_cfg = shipped("complementary-a-only")
    b_cfg = shipped("complementary-b-only")
    for cfg in (hybrid_cfg, a_cfg, b_cfg):
        assert cfg["task"]["n_classes"] == 16
        assert cfg["task"]["n_train"] == 2000
        assert cfg["task"]["n_eval"] == 500
        assert cfg["task"]["seed"] == 7
        assert cfg["seed"] == 0
    assert hybrid_cfg["model"]["encoders"] == "A+B"
    assert hybrid_cfg["model"]["fusion"] == "post-interleave"
    assert a_cfg["model"]["encoders"] == "A"
    assert b_cfg["model"]["encoders"] == "B"

    # the single-branch ceilings are construction facts, not tuning luck
    bounds = verify_complementary_blindness(32)
    assert bounds == {"mean_view_bound": 0.25, "residual_view_bound": 0.25}

    hybrid = run_experiment(hybrid_cfg).accuracy
    a_only = run_experiment(a_cfg).accuracy
    b_only = run_experiment(b_cfg).accuracy

    assert hybrid >= 0.90, f"hybrid accuracy {hybrid}"
    assert a_only <= 0.60, f"branch A alone {a_only}"
    assert b_only <= 0.60, f"branch B alone {b_only}"
    assert hybrid - max(a_only, b_only) >= 0.30
    assert time.perf_counter() - t0 < 900.0


@pytest.mark.slow
def test_tiling_beats_untiled_at_equal_budget():
    t0 = time.perf_counter()
    tiled_cfg = shipped("tile-detail-tiled")
    untiled_cfg = shipped("tile-detail-untiled")
    for key in ("stage1", "stage2"):
        assert tiled_cfg["training"][key]["steps"] == \
            untiled_cfg["training"][key]["steps"]
    assert tiled_cfg["task"] == untiled_cfg["task"]
    assert tiled_cfg["model"]["max_tiles"] > 1
    assert untiled_cfg["model"]["max_tiles"] == 1

    tiled = run_experiment(tiled_cfg)
    untiled = run_experiment(untiled_cfg)
    assert tiled.steps == untiled.steps
    assert tiled.accuracy >= untiled.accuracy + 0.15, \
        f"tiled {tiled.accuracy} vs untiled {untiled.accuracy}"
    assert time.perf_counter() - t0 < 900.0


def test_determinism_and_checkpoint_resume(tmp_path):
    t0 = time.perf_counter()
    data = one_batch_dataset(n=4)
    plan = stage_plan("stage1", steps=5, warmup_steps=1, base_lr=1e-3)
    streams = []
    for k in range(2):
        out = str(tmp_path / f"run{k}")
        run_stage(plan, desk_pipe(seed=2), data, seed=9, batch_size=2,
                  out_dir=out, clock=fake_clock())
        with open(os.path.join(out, "metrics.jsonl"), "rb") as fh:
            streams.append(fh.read())
    assert streams[0] == streams[1]

    first = stage_plan("stage1", steps=4, warmup_steps=1, base_lr=1e-3)
    m1 = desk_pipe(seed=7)
    ckpt_dir = str(tmp_path / "ckpt")
    run_stage(first, m1, data, seed=21, batch_size=2, out_dir=ckpt_dir)

    m2 = desk_pipe(seed=8)  # different init, fully overwritten by restore
    restore(m2, Checkpoint.load(ckpt_dir))

    cont = stage_plan("stage1", steps=1, warmup_steps=0, base_lr=1e-3)
    _, rec1 = run_stage(cont, m1, data, seed=22, batch_size=2)
    _, rec2 = run_stage(cont, m2, data, seed=22, batch_size=2)
    assert rec1[0].loss == rec2[0].loss
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        assert p1.data.tobytes() == p2.data.tobytes(), p1.name
    assert time.perf_counter() - t0 < 120.0


def test_context_budget_enforced_and_full_scale_fits():
    t0 = time.perf_counter()
    d = 8
    tok = ByteTokenizer()
    embed = tz.Parameter("lm.embed", np.zeros((VOCAB_SIZE, d)))
    prompt = tok.encode(build_prompt(1, "describe the scene"))
    answer = tok.encode("a short caption")

    # 7 tiles of 512 fused tokens: one full-scale image after tiling
    visual = VisualSequence(np.zeros((7 * 512, d)), 7, (("A", 512),))

    seq = splice(prompt, answer, [visual], embed, context_limit=8196)
    assert (seq.token_ids == IMG_CONTEXT_ID).sum() == 3584
    text_positions = 2 + (len(prompt) - 1) + len(answer)
    assert seq.length == 3584 + text_positions
    assert seq.length < 8196

    with pytest.raises(BudgetError) as err:
        splice(prompt, answer, [visual], embed, context_limit=3584)
    assert err.value.required == seq.length
    assert err.value.available == 3584
    assert time.perf_counter() - t0 < 1.0
