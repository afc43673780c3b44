"""Trainer tests: schedule math, optimizer, freezing, persistence.

The AdamW oracle is an independently written reference loop compared
bitwise. Freeze semantics are checked by hashing parameter bytes before
and after a stage. Determinism is checked by running identical stages
twice and comparing metric streams, and resume is checked by comparing
load-then-train against train-through at byte level.
"""

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np
import pytest

from tilefusion import tensor as tz
from tilefusion.encoders import Encoder, EncoderConfig
from tilefusion.errors import ConfigError, ContractError, DimensionError
from tilefusion.lm import LMConfig
from tilefusion import model as model_module
from tilefusion.model import Pipeline, PipelineConfig
from tilefusion.tensor import Parameter
from tilefusion.tiling import ImageBuffer
from tilefusion.training import (
    STAGE_NAMES,
    AdamW,
    Checkpoint,
    MetricsRecord,
    StagePlan,
    batch_indices,
    config_hash,
    cosine_lr,
    read_metrics,
    restore,
    run_stage,
    snapshot,
    stage1_plan,
    stage2_plan,
)

import per_image_oracle as oracle
from per_image_oracle import pad_batch


@dataclass
class Sample:
    images: list
    question: str
    answer: str


def tiny_cfg(ctx=96, fusion="post-interleave"):
    enc_a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                          grid_side=4, unshuffle_r=2)
    enc_b = EncoderConfig(patch_size=2, embed_dim=8, depth=1, heads=2,
                          grid_side=8, unshuffle_r=2)
    return PipelineConfig(
        encoder_a=enc_a, encoder_b=enc_b,
        lm=LMConfig(d_lm=16, layers=1, heads=2, context_limit=ctx),
        tile_size=16, max_tiles=4, fusion=fusion, projector_hidden=8)


def tiny_pipe(seed=0, **kw):
    return Pipeline(tiny_cfg(**kw), seed=seed)


def make_dataset(n=4, seed=100):
    rng = np.random.default_rng(seed)
    answers = "abcdefgh"
    return [Sample([ImageBuffer(rng.random((16, 16, 3)))], "which?",
                   answers[i % len(answers)]) for i in range(n)]


def param_bytes(model, prefixes):
    return {p.name: p.data.tobytes() for p in model.parameters()
            if p.name.startswith(tuple(prefixes))}


# schedule


class TestCosineLr:
    def test_warmup_endpoint_is_base(self):
        assert cosine_lr(10, 2.0, 100, 10) == 2.0

    def test_final_step_is_zero(self):
        assert cosine_lr(100, 2.0, 100, 10) == 0.0

    def test_decay_midpoint_is_half_base(self):
        assert abs(cosine_lr(55, 2.0, 100, 10) - 1.0) < 1e-12

    def test_warmup_is_linear_from_zero(self):
        assert cosine_lr(0, 2.0, 100, 10) == 0.0
        assert cosine_lr(5, 2.0, 100, 10) == 1.0
        assert cosine_lr(1, 2.0, 100, 10) == 0.2

    def test_no_warmup_starts_at_base(self):
        assert cosine_lr(0, 3.0, 50, 0) == 3.0

    def test_nonincreasing_after_warmup(self):
        vals = [cosine_lr(s, 1.0, 200, 20) for s in range(20, 201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ContractError):
            cosine_lr(-1, 1.0, 10, 2)
        with pytest.raises(ContractError):
            cosine_lr(11, 1.0, 10, 2)
        with pytest.raises(ContractError):
            cosine_lr(5, 1.0, 10, 20)


# optimizer


def ref_adamw(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    p = p0.copy()
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    for t, g in enumerate(grads, 1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p = p - lr * wd * p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = Parameter("w", np.arange(6.0).reshape(2, 3))
        before = p.data.tobytes()
        p.grad = np.zeros_like(p.data)
        AdamW([p]).step(0.1)
        assert p.data.tobytes() == before

    def test_frozen_param_untouched_by_nonzero_grad(self):
        p = Parameter("w", np.ones((3,)), frozen=True)
        before = p.data.tobytes()
        p.grad = np.ones(3)
        opt = AdamW([p], weight_decay=0.5)
        for _ in range(4):
            opt.step(0.1)
        assert p.data.tobytes() == before

    def test_first_step_moves_by_about_lr(self):
        p = Parameter("w", np.array([1.0]))
        p.grad = np.array([1.0])
        AdamW([p]).step(0.1)
        assert abs(p.data[0] - 0.9) < 1e-8

    def test_decay_is_decoupled_from_moments(self):
        start = np.array([2.0, -3.0])
        p = Parameter("w", start.copy())
        p.grad = np.zeros(2)
        AdamW([p], weight_decay=0.01).step(0.1)
        want = start - 0.1 * 0.01 * start - 0.0
        assert p.data.tobytes() == want.tobytes()

    def test_matches_reference_trajectory_bitwise(self):
        # trained parameters of several shapes around a frozen one: the
        # flat update is elementwise, so each slice is the loop's update
        rng = np.random.default_rng(3)
        shapes = {"a": (4, 5), "frozen": (3,), "b": (2, 3, 2), "c": (7,)}
        starts = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = [Parameter(k, starts[k].copy(), frozen=(k == "frozen"))
                  for k in shapes]
        grads = {k: [rng.standard_normal(s) for _ in range(10)]
                 for k, s in shapes.items()}
        opt = AdamW(params, weight_decay=0.01)
        for step in range(10):
            for p in params:
                p.grad = grads[p.name][step]
            opt.step(0.05)
        for p in params:
            if p.frozen:
                assert p.data.tobytes() == starts[p.name].tobytes()
            else:
                want = ref_adamw(starts[p.name], grads[p.name], 0.05,
                                 wd=0.01)
                assert np.array_equal(p.data, want), p.name

    def test_grad_shape_mismatch_rejected(self):
        p = Parameter("w", np.ones((2, 2)))
        p.grad = np.ones(4)
        with pytest.raises(DimensionError):
            AdamW([p]).step(0.1)

    def test_missing_grad_rejected_and_nothing_moves(self):
        ok = Parameter("w_ok", np.ones(3))
        missing = Parameter("w_missing", np.ones(2))
        ok.grad = np.ones(3)
        missing.grad = None
        before = [ok.data.tobytes(), missing.data.tobytes()]
        with pytest.raises(DimensionError, match="w_missing"):
            AdamW([ok, missing], weight_decay=0.5).step(0.1)
        assert [ok.data.tobytes(), missing.data.tobytes()] == before

    def test_param_thawed_after_construction_is_not_trained(self):
        # the trained set is fixed when the optimizer is built; a param
        # thawed later needs a new optimizer, whose bias correction
        # starts afresh, as if its history started there
        pa = Parameter("a", np.array([1.0]), frozen=True)
        opt = AdamW([pa])
        pa.grad = np.array([1.0])
        opt.step(0.1)
        pa.frozen = False
        opt.step(0.1)
        assert pa.data.tobytes() == np.array([1.0]).tobytes()
        AdamW([pa]).step(0.1)
        pb = Parameter("b", np.array([1.0]))
        opt2 = AdamW([pb])
        pb.grad = np.array([1.0])
        opt2.step(0.1)
        assert np.array_equal(pa.data, pb.data)


def random_grads(params, rng):
    for p in params:
        p.grad = rng.standard_normal(p.data.shape)


@pytest.mark.parametrize("checkpoint", ["snapshot", "restore"])
def test_checkpoint_keeps_optimizer_storage(checkpoint):
    model = tiny_pipe(seed=3)
    model.set_frozen(stage2_plan(steps=1).frozen_prefixes)
    opt = AdamW(model.parameters(), weight_decay=0.01)
    rng = np.random.default_rng(4)
    random_grads(opt.params, rng)
    opt.step(0.1)
    if checkpoint == "snapshot":
        snapshot(model, 1, "stage2")
    else:
        restore(model, snapshot(tiny_pipe(seed=99), 0, "stage2"))
    assert all(np.shares_memory(p.data, opt.data) for p in opt.params)
    before = param_bytes(model, ("",))
    random_grads(opt.params, rng)
    opt.step(0.1)
    after = param_bytes(model, ("",))
    assert all(after[p.name] != before[p.name] for p in opt.params)
    assert all(after[k] == before[k] for k in before
               if k.startswith(("encoderA.", "encoderB.")))


# plans


class TestStagePlans:
    def test_stage1_freezes_encoders_and_lm(self):
        plan = stage1_plan(steps=100)
        assert set(plan.frozen_prefixes) >= {"encoderA.", "encoderB.",
                                             "lm."}
        assert plan.base_lr == 4e-4
        assert plan.weight_decay == 0.01
        assert plan.warmup_steps == 3

    def test_stage2_trains_the_lm(self):
        plan = stage2_plan(steps=200, base_lr=4e-5)
        assert "lm." not in plan.frozen_prefixes
        assert set(plan.frozen_prefixes) >= {"encoderA.", "encoderB."}
        assert plan.warmup_steps == 6

    def test_extra_frozen_prefixes_are_kept(self):
        plan = stage1_plan(steps=10, extra_frozen=("projectorA.",))
        assert "projectorA." in plan.frozen_prefixes

    def test_invalid_plans_rejected(self):
        with pytest.raises(ConfigError):
            StagePlan("stage3", ("encoderA.", "encoderB."), 1e-3, 0.0,
                      10, 0)
        with pytest.raises(ConfigError):
            StagePlan("stage1", ("encoderA.", "encoderB."), 1e-3, 0.0,
                      10, 0)  # missing lm.
        with pytest.raises(ConfigError):
            StagePlan("stage2", ("encoderA.", "encoderB.", "lm."), 1e-3,
                      0.0, 10, 0)
        with pytest.raises(ConfigError):
            stage1_plan(steps=0)
        with pytest.raises(ConfigError):
            stage1_plan(steps=10, warmup_steps=11)
        with pytest.raises(ConfigError):
            stage1_plan(steps=10, base_lr=0.0)
        with pytest.raises(ConfigError):
            stage1_plan(steps=10, weight_decay=-0.1)


# batching


class TestBatchIndices:
    def test_deterministic_per_key(self):
        a = batch_indices(7, 1, 3, 100, 8)
        b = batch_indices(7, 1, 3, 100, 8)
        assert np.array_equal(a, b)
        assert len(a) == 8
        assert len(set(a.tolist())) == 8

    def test_different_steps_give_different_batches(self):
        draws = {tuple(batch_indices(7, 1, s, 100, 8)) for s in range(20)}
        assert len(draws) > 15

    def test_small_dataset_caps_batch(self):
        idx = batch_indices(0, 2, 0, 3, 8)
        assert sorted(idx.tolist()) == [0, 1, 2]


# persistence


class TestCheckpoint:
    def test_restore_copies_exact_values(self):
        m1 = tiny_pipe(seed=1)
        ckpt = snapshot(m1, step=5, stage="stage1")
        m2 = tiny_pipe(seed=2)
        restore(m2, ckpt)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes(), p1.name

    def test_save_load_save_blob_identical(self, tmp_path):
        m1 = tiny_pipe(seed=1)
        ckpt = snapshot(m1, step=5, stage="stage1")
        ckpt.save(tmp_path)
        loaded = Checkpoint.load(tmp_path)
        assert loaded.blob == ckpt.blob
        m3 = tiny_pipe(seed=3)
        restore(m3, loaded)
        again = snapshot(m3, step=5, stage="stage1")
        assert again.blob == ckpt.blob
        assert again.manifest == ckpt.manifest

    def test_manifest_layout(self):
        m = tiny_pipe(seed=0)
        ckpt = snapshot(m, step=7, stage="stage2")
        man = ckpt.manifest
        assert man["step"] == 7
        assert man["stage"] == "stage2"
        assert man["config_hash"] == config_hash(m.cfg)
        offset = 0
        for entry, p in zip(man["params"], m.parameters()):
            assert entry["name"] == p.name
            assert tuple(entry["shape"]) == p.data.shape
            assert entry["offset"] == offset
            offset += 4 * p.data.size
        assert len(ckpt.blob) == offset

    def test_config_hash_guard(self):
        m1 = tiny_pipe(seed=1)
        ckpt = snapshot(m1, step=0, stage="stage1")
        other = Pipeline(replace(tiny_cfg(), max_tiles=2), seed=1)
        with pytest.raises(ContractError):
            restore(other, ckpt)
        restore(other, ckpt, strict=False)
        assert other.parameters()[0].data.tobytes() == \
            m1.parameters()[0].data.tobytes()

    def test_wrong_parameter_set_rejected(self):
        m1 = tiny_pipe(seed=1)
        ckpt = snapshot(m1, step=0, stage="stage1")
        other = Pipeline(replace(tiny_cfg(), encoders="A"), seed=1)
        with pytest.raises(ContractError):
            restore(other, ckpt, strict=False)

    def test_truncated_blob_rejected(self, tmp_path):
        ckpt = snapshot(tiny_pipe(seed=1), step=0, stage="stage1")
        ckpt.save(tmp_path)
        blob_path = os.path.join(tmp_path, "weights.bin")
        with open(blob_path, "rb") as f:
            raw = f.read()
        with open(blob_path, "wb") as f:
            f.write(raw[:-8])
        with pytest.raises(ContractError):
            Checkpoint.load(tmp_path)

    def test_flipped_byte_rejected(self, tmp_path):
        ckpt = snapshot(tiny_pipe(seed=1), step=0, stage="stage1")
        ckpt.save(tmp_path)
        blob_path = os.path.join(tmp_path, "weights.bin")
        with open(blob_path, "rb") as f:
            raw = bytearray(f.read())
        raw[len(raw) // 2] ^= 0x01
        with open(blob_path, "wb") as f:
            f.write(raw)
        with pytest.raises(ContractError, match="sha256"):
            Checkpoint.load(tmp_path)

    def test_save_records_digest_and_leaves_no_temporaries(self, tmp_path):
        ckpt = snapshot(tiny_pipe(seed=1), step=0, stage="stage1")
        ckpt.save(tmp_path)
        ckpt.save(tmp_path)
        assert sorted(os.listdir(tmp_path)) == ["manifest.json",
                                                "weights.bin"]
        with open(os.path.join(tmp_path, "manifest.json")) as f:
            assert json.load(f)["blob_sha256"] == \
                hashlib.sha256(ckpt.blob).hexdigest()


# stages


def fake_clock():
    t = [0.0]

    def tick():
        t[0] += 0.001
        return t[0]

    return tick


class TestRunStage:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            run_stage(stage1_plan(steps=1), tiny_pipe(), [], seed=0)

    def test_nan_loss_aborts_with_step(self):
        pipe = tiny_pipe(seed=0)
        pipe.lm.head.data[...] = np.nan
        with pytest.raises(ContractError) as err:
            run_stage(stage1_plan(steps=3), pipe, make_dataset(2), seed=0)
        assert "step 0" in str(err.value)

    def test_nan_grad_aborts_before_any_update(self, monkeypatch):
        pipe = tiny_pipe(seed=0)
        before = param_bytes(pipe, ("",))
        real_backward = tz.backward

        def poisoned(loss, *args, **kwargs):
            real_backward(loss, *args, **kwargs)
            pipe.projector_b.w1.grad[0, 0] = np.nan

        monkeypatch.setattr(tz, "backward", poisoned)
        with pytest.raises(ContractError) as err:
            run_stage(stage1_plan(steps=3), pipe, make_dataset(2), seed=0)
        msg = str(err.value)
        assert "projectorB.w1" in msg
        assert "stage1" in msg and "step 0" in msg
        assert param_bytes(pipe, ("",)) == before
        assert all(p.requires_grad for p in pipe.parameters())

    def test_metrics_stream_shape(self):
        plan = stage1_plan(steps=6, warmup_steps=2, base_lr=1e-3)
        ckpt, recs = run_stage(plan, tiny_pipe(seed=1), make_dataset(4),
                               seed=5, batch_size=2, clock=fake_clock())
        assert len(recs) == 6
        for k, rec in enumerate(recs):
            assert rec.step == k
            assert rec.stage == "stage1"
            assert rec.lr == cosine_lr(k, 1e-3, 6, 2)
            assert np.isfinite(rec.loss)
            assert abs(rec.wall_ms - 1.0) < 1e-9
        assert ckpt.manifest["step"] == 6

    def test_identical_runs_give_identical_streams(self):
        plan = stage1_plan(steps=5, warmup_steps=1, base_lr=1e-3)
        data = make_dataset(4)
        outs = []
        for _ in range(2):
            _, recs = run_stage(plan, tiny_pipe(seed=2), data, seed=9,
                                batch_size=2, clock=fake_clock())
            outs.append(recs)
        assert outs[0] == outs[1]

    def test_stage1_freezes_encoders_and_lm_exactly(self):
        pipe = tiny_pipe(seed=3)
        data = make_dataset(4)
        frozen_before = param_bytes(pipe, ("encoderA.", "encoderB.", "lm."))
        proj_before = param_bytes(pipe, ("projector",))
        plan = stage1_plan(steps=30, warmup_steps=2, base_lr=2e-3)
        _, recs = run_stage(plan, pipe, data, seed=11, batch_size=4)
        assert param_bytes(pipe, ("encoderA.", "encoderB.", "lm.")) == \
            frozen_before
        proj_after = param_bytes(pipe, ("projector",))
        assert all(proj_after[k] != proj_before[k] for k in proj_before)
        post = [r.loss for r in recs[plan.warmup_steps:]]
        assert all(a > b for a, b in zip(post, post[1:]))
        assert post[-1] < post[0]

    def test_stage2_trains_projectors_and_lm(self):
        pipe = tiny_pipe(seed=4)
        data = make_dataset(4)
        run_stage(stage1_plan(steps=10, warmup_steps=1, base_lr=2e-3),
                  pipe, data, seed=11, batch_size=4)
        enc_before = param_bytes(pipe, ("encoderA.", "encoderB."))
        lm_before = param_bytes(pipe, ("lm.",))
        proj_before = param_bytes(pipe, ("projector",))
        plan = stage2_plan(steps=10, warmup_steps=1, base_lr=5e-4)
        _, recs = run_stage(plan, pipe, data, seed=12, batch_size=4)
        assert param_bytes(pipe, ("encoderA.", "encoderB.")) == enc_before
        lm_after = param_bytes(pipe, ("lm.",))
        assert any(lm_after[k] != lm_before[k] for k in lm_before)
        proj_after = param_bytes(pipe, ("projector",))
        assert any(proj_after[k] != proj_before[k] for k in proj_before)
        assert recs[-1].loss < recs[0].loss

    def test_out_dir_writes_metrics_and_checkpoint(self, tmp_path):
        plan = stage1_plan(steps=4, warmup_steps=1, base_lr=1e-3)
        out = str(tmp_path / "run")
        ckpt, recs = run_stage(plan, tiny_pipe(seed=5), make_dataset(2),
                               seed=6, batch_size=2, out_dir=out,
                               clock=fake_clock())
        from_disk = read_metrics(os.path.join(out, "metrics.jsonl"))
        assert from_disk == recs
        loaded = Checkpoint.load(out)
        assert loaded.blob == ckpt.blob
        assert loaded.manifest == ckpt.manifest

    def test_resume_reproduces_next_step_loss_exactly(self, tmp_path):
        data = make_dataset(4)
        first = stage1_plan(steps=4, warmup_steps=1, base_lr=1e-3)
        m1 = tiny_pipe(seed=7)
        ckpt, _ = run_stage(first, m1, data, seed=21, batch_size=2,
                            out_dir=str(tmp_path))

        m2 = tiny_pipe(seed=8)  # different init, fully overwritten
        restore(m2, Checkpoint.load(str(tmp_path)))

        cont = stage1_plan(steps=1, warmup_steps=0, base_lr=1e-3)
        _, rec1 = run_stage(cont, m1, data, seed=22, batch_size=2)
        _, rec2 = run_stage(cont, m2, data, seed=22, batch_size=2)
        assert rec1[0].loss == rec2[0].loss
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes(), p1.name


def test_gapped_trainable_set_trains_only_its_own_slices():
    # post-channel orders projectorA, projectorB, fusion.down: freezing
    # projectorB leaves a gap inside the trained set
    model = Pipeline(equal_token_cfg("post-channel"), seed=5)
    plan = stage1_plan(steps=3, warmup_steps=1, base_lr=2e-3,
                       extra_frozen=("projectorB.",))
    model.set_frozen(plan.frozen_prefixes)
    trained = [k for k, p in enumerate(model.parameters()) if not p.frozen]
    assert trained != list(range(trained[0], trained[-1] + 1))
    fixed = ("projectorB.", "encoderA.", "encoderB.", "lm.")
    moving = ("projectorA.", "fusion.down")
    fixed_before = param_bytes(model, fixed)
    moving_before = param_bytes(model, moving)
    run_stage(plan, model, make_dataset(4), seed=11, batch_size=4)
    assert param_bytes(model, fixed) == fixed_before
    moving_after = param_bytes(model, moving)
    assert moving_after.keys() == moving_before.keys()
    assert all(moving_after[k] != moving_before[k] for k in moving_before)


def oracle_stage(plan, model, dataset, seed, batch_size):
    """run_stage's recipe on the uncached, fully differentiable path."""
    model.set_frozen(plan.frozen_prefixes)
    params = model.parameters()
    opt = AdamW(params, weight_decay=plan.weight_decay)
    stage_index = STAGE_NAMES.index(plan.name) + 1
    losses = []
    for step in range(plan.steps):
        idx = batch_indices(seed, stage_index, step, len(dataset),
                            batch_size)
        samples = [dataset[int(i)] for i in idx]
        mean = model.lm.forward(model.assemble_batch(samples)).loss
        losses.append(mean.item())
        for p in params:
            p.zero_grad()
        tz.backward(mean)
        opt.step(cosine_lr(step, plan.base_lr, plan.steps,
                           plan.warmup_steps))
    return snapshot(model, plan.steps, plan.name), losses


def mixed_dataset(n=6, seed=200):
    """Wide single images (two tiles plus thumbnail) and image pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 2:
            images = [ImageBuffer(rng.random((16, 16, 3))) for _ in range(2)]
        else:
            images = [ImageBuffer(rng.random((16, 32, 3)))]
        out.append(Sample(images, "which?", "abcdef"[i]))
    return out


def equal_token_cfg(fusion):
    cfg = tiny_cfg(ctx=192)
    return replace(cfg, fusion=fusion,
                   encoder_b=replace(cfg.encoder_b, unshuffle_r=4))


@pytest.mark.parametrize("cfg", [
    tiny_cfg(ctx=192),
    equal_token_cfg("post-channel"),
    tiny_cfg(ctx=192, fusion="pre-sequence"),
    replace(tiny_cfg(ctx=192), encoders="B"),
], ids=["post-interleave", "post-channel", "pre-sequence", "B-only"])
def test_cached_tokens_match_uncached_oracle_bitwise(cfg):
    data = mixed_dataset()
    plans = [stage1_plan(steps=4, warmup_steps=1, base_lr=2e-3),
             stage2_plan(steps=4, warmup_steps=1, base_lr=5e-4)]
    fast, slow = Pipeline(cfg, seed=5), Pipeline(cfg, seed=5)
    encoders = ("encoderA.", "encoderB.")
    enc_before = param_bytes(fast, encoders)
    for k, plan in enumerate(plans):
        ckpt, recs = run_stage(plan, fast, data, seed=13 + k, batch_size=4)
        want_ckpt, want = oracle_stage(plan, slow, data, 13 + k, 4)
        assert [r.loss.hex() for r in recs] == [x.hex() for x in want]
        assert ckpt.blob == want_ckpt.blob
        assert param_bytes(fast, encoders) == enc_before
        assert all(p.grad is None for p in fast.parameters()
                   if p.name.startswith(encoders))


def per_sample_mean(model, samples):
    """The slow path: one forward_sample graph per sample, chained."""
    losses = [model.forward_sample(s.images, s.question, s.answer).loss
              for s in samples]
    total = losses[0]
    for extra in losses[1:]:
        total = tz.add(total, extra)
    return tz.mul_scalar(total, 1.0 / len(losses))


def batched_mean(model, samples):
    """run_stage's path: one padded LM batch."""
    return model.lm.forward(model.assemble_batch(samples)).loss


def trainable_grads(model, loss):
    for p in model.parameters():
        p.zero_grad()
    tz.backward(loss)
    return {p.name: p.grad for p in model.parameters() if not p.frozen}


def stage2_model():
    model = Pipeline(tiny_cfg(ctx=192), seed=5)
    model.set_frozen(stage2_plan(steps=1).frozen_prefixes)
    return model


# Unequal lengths are not bitwise: a softmax row sum over more (zero)
# key weights is grouped differently by numpy's pairwise summation once
# a row reaches past the last multiple of 8 of the shorter length, so
# the loss may move by an ulp. Summing weight gradients over all samples
# inside one matmul, not across one graph per sample, moves them more.
@pytest.mark.parametrize("data, loss_rtol", [
    (make_dataset(4), 0.0),
    (mixed_dataset(), 1e-15),
], ids=["equal-length", "mixed-length"])
def test_batched_lm_matches_per_sample_graphs(data, loss_rtol):
    model = stage2_model()
    want_loss = per_sample_mean(model, data)
    want = trainable_grads(model, want_loss)
    got_loss = batched_mean(model, data)
    got = trainable_grads(model, got_loss)
    if loss_rtol == 0.0:
        assert got_loss.item().hex() == want_loss.item().hex()
    assert abs(got_loss.item() - want_loss.item()) <= \
        loss_rtol * want_loss.item()
    assert got.keys() == want.keys()
    for name, g in want.items():
        assert tz.relative_error(got[name], g) <= 1e-12, name


def test_padding_does_not_leak_into_a_shorter_sample():
    model = stage2_model()
    seqs = [model.assemble(s.images, s.question, s.answer)
            for s in mixed_dataset()]
    short, long_a, long_b = seqs[1], seqs[0], seqs[2]
    assert short.length < long_a.length == long_b.length
    n = short.length
    alone = model.lm.forward(short).logits.data
    beside_a = model.lm.forward(pad_batch([short, long_a])).logits.data
    beside_b = model.lm.forward(pad_batch([long_b, short])).logits.data
    # at one padded length, nothing of the partner reaches the short rows
    assert beside_a[0, :n].tobytes() == beside_b[1, :n].tobytes()
    assert tz.relative_error(beside_a[0, :n], alone) <= 1e-13
    # an unpadded sample's rows are bitwise its unbatched rows
    assert beside_a[1].tobytes() == \
        model.lm.forward(long_a).logits.data.tobytes()


def test_batched_loss_gradient_matches_finite_differences():
    model = stage2_model()
    data = mixed_dataset()
    grads = trainable_grads(model, batched_mean(model, data))
    d = model.cfg.lm.d_lm
    short = model.assemble(data[1].images, data[1].question, data[1].answer)
    # row short.length + 2 of lm.pos sits under a pad of the short
    # samples: only the long ones may put gradient there
    picks = {model.projector_a.w1: [0, 37],
             model.lm.blocks[0]["wq"]: [5, 200],
             model.lm.pos: [3, (short.length + 2) * d + 1],
             model.lm.head: [7, 3000]}
    for p, idx in picks.items():
        fd = tz.finite_difference_grad_at(
            lambda _t: batched_mean(model, data), p, idx)
        got = grads[p.name].reshape(-1)[idx]
        assert np.all(got != 0.0), p.name
        assert tz.relative_error(got, fd) < 1e-4, p.name


# The batched image side against the per-image oracle. Fusion is
# tile-local and every op on the way is row-wise, so the visual rows,
# provenance, batch and loss are bitwise. Trainable gradients are not:
# a projector's weight gradient sums all the step's rows in one matmul
# instead of one matmul per image, and the table's scatter-add runs in
# another order; they agree within 1e-12 relative (relative_error).
LAYOUTS = {
    "post-interleave": tiny_cfg(ctx=192),
    "post-channel": equal_token_cfg("post-channel"),
    "pre-sequence": tiny_cfg(ctx=192, fusion="pre-sequence"),
    "pre-channel": equal_token_cfg("pre-channel"),
    "B-only": replace(tiny_cfg(ctx=192), encoders="B"),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_batched_image_side_matches_per_image_oracle(layout, monkeypatch):
    model = Pipeline(LAYOUTS[layout], seed=5)
    model.set_frozen(stage2_plan(steps=1).frozen_prefixes)
    data = mixed_dataset()
    model.sync_token_cache()
    tokens = [[model.frozen_tokens(img) for img in s.images] for s in data]
    flat = [t for per_sample in tokens for t in per_sample]

    # rows and provenance of every image, from one fused pass
    fused = model.fuse_images(flat)
    start = tile0 = 0
    for t in flat:
        want = oracle.fuse_tokens(model, t)
        n = want.n_tokens
        assert fused.embeddings.data[start:start + n].tobytes() == \
            want.embeddings.data.tobytes()
        assert [(tile - tile0, b, i) for tile, b, i
                in fused.provenance[start:start + n]] == want.provenance
        start += n
        tile0 += next(iter(t.values())).n_tiles
    assert start == fused.n_tokens

    # the B = 1 path hands splice each image's own rows and provenance
    seen = []
    real_splice = model_module.splice
    monkeypatch.setattr(model_module, "splice",
                        lambda *a: seen.append(a[2]) or real_splice(*a))
    for s, t in zip(data, tokens):
        got = model.assemble(s.images, s.question, s.answer, t)
        want, want_vis = oracle.assemble(model, s.images, s.question,
                                         s.answer, t)
        assert got.embeddings.data.tobytes() == want.embeddings.data.tobytes()
        assert got.token_ids.tobytes() == want.token_ids.tobytes()
        assert [(v.embeddings.data.tobytes(), v.provenance)
                for v in seen.pop()] == \
            [(v.embeddings.data.tobytes(), v.provenance) for v in want_vis]

    got = model.assemble_batch(data, tokens)
    want, _ = oracle.assemble_batch(model, data, tokens)
    assert got.embeddings.data.tobytes() == want.embeddings.data.tobytes()
    assert got.token_ids.tobytes() == want.token_ids.tobytes()
    assert got.loss_mask.tobytes() == want.loss_mask.tobytes()

    want_loss = model.lm.forward(want).loss
    want_grads = trainable_grads(model, want_loss)
    got_loss = model.lm.forward(got).loss
    got_grads = trainable_grads(model, got_loss)
    assert got_loss.item().hex() == want_loss.item().hex()
    assert got_grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert tz.relative_error(got_grads[name], g) <= 1e-12, name


class EncodeSpy:
    """Records (encoder prefix, tile bytes) of every Encoder.encode."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = Encoder.encode

        def spy(encoder, tiles):
            self.calls.append((encoder.prefix, b"".join(
                p.pixels.tobytes() for p in tiles.patches)))
            return original(encoder, tiles)

        monkeypatch.setattr(Encoder, "encode", spy)


def cache_plans():
    # batch_size = len(data) below: every step draws every sample
    return [stage1_plan(steps=2, warmup_steps=1, base_lr=2e-3),
            stage2_plan(steps=2, warmup_steps=1, base_lr=5e-4)]


def distinct_images(data):
    return len({img.pixels.tobytes() for s in data for img in s.images})


def test_token_cache_encodes_each_image_once_across_stages(monkeypatch):
    spy = EncodeSpy(monkeypatch)
    data = mixed_dataset()
    model = Pipeline(tiny_cfg(ctx=192), seed=5)
    per_stage = []
    for k, plan in enumerate(cache_plans()):
        before = len(spy.calls)
        run_stage(plan, model, data, seed=13 + k, batch_size=len(data))
        per_stage.append(len(spy.calls) - before)
    assert per_stage == [2 * distinct_images(data), 0]
    assert len(set(spy.calls)) == len(spy.calls)


def bump_encoder_weight(model):
    # an f32 value, so the end-of-stage snapshot leaves it as it is
    model.encoder_b.pos.data[0, 0] = 0.5


def restore_other_weights(model):
    restore(model, snapshot(Pipeline(model.cfg, seed=99), 0, "stage1"))


@pytest.mark.parametrize("change", [bump_encoder_weight, restore_other_weights],
                         ids=["in-place-write", "restore"])
def test_token_cache_refills_when_encoder_weights_change(monkeypatch, change):
    spy = EncodeSpy(monkeypatch)
    data = mixed_dataset()
    model = Pipeline(tiny_cfg(ctx=192), seed=5)
    stage1, stage2 = cache_plans()
    run_stage(stage1, model, data, seed=13, batch_size=len(data))
    old = {key: {label: grid.data.data.copy() for label, grid in t.items()}
           for key, t in model.token_cache.items()}
    change(model)
    before = len(spy.calls)
    run_stage(stage2, model, data, seed=14, batch_size=len(data))
    assert len(spy.calls) - before == 2 * distinct_images(data)
    assert model.token_cache.keys() == old.keys()
    for s in data:
        for img in s.images:
            n = len(spy.calls)
            cached = model.frozen_tokens(img)
            assert len(spy.calls) == n  # a hit
            fresh = model.branch_tokens(img)
            assert cached.keys() == fresh.keys()
            for label in fresh:
                assert cached[label].data.data.tobytes() == \
                    fresh[label].data.data.tobytes()
    assert any(not np.array_equal(t["B"], model.token_cache[k]["B"].data.data)
               for k, t in old.items())


def test_new_pipeline_starts_with_empty_token_cache(monkeypatch):
    spy = EncodeSpy(monkeypatch)
    data = mixed_dataset()
    plan = cache_plans()[0]
    first = Pipeline(tiny_cfg(ctx=192), seed=5)
    run_stage(plan, first, data, seed=13, batch_size=len(data))
    assert len(first.token_cache) == distinct_images(data)
    second = Pipeline(tiny_cfg(ctx=192), seed=5)
    assert second.token_cache == {}
    before = len(spy.calls)
    run_stage(plan, second, data, seed=13, batch_size=len(data))
    assert len(spy.calls) - before == 2 * distinct_images(data)


def test_answer_neither_reads_nor_fills_token_cache(monkeypatch):
    spy = EncodeSpy(monkeypatch)
    data = mixed_dataset()
    model = Pipeline(tiny_cfg(ctx=192), seed=5)
    run_stage(cache_plans()[0], model, data, seed=13, batch_size=len(data))
    cache = dict(model.token_cache)
    unseen = ImageBuffer(np.random.default_rng(7).random((16, 16, 3)))
    for images in (data[1].images, [unseen]):
        before = len(spy.calls)
        model.answer(images, "which?", max_new=2)
        assert len(spy.calls) - before == 2 * len(images)
        assert model.token_cache.keys() == cache.keys()
        assert all(model.token_cache[k] is v for k, v in cache.items())


def test_metrics_record_round_trips_json():
    rec = MetricsRecord(step=3, stage="stage2", lr=0.25, loss=1.5,
                        wall_ms=12.0)
    assert MetricsRecord(**json.loads(rec.to_json_line())) == rec


def test_config_hash_stable_and_sensitive():
    a = config_hash(tiny_cfg())
    assert a == config_hash(tiny_cfg())
    assert a != config_hash(replace(tiny_cfg(), max_tiles=2))
    assert len(a) == 64
