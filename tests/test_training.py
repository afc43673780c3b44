"""Trainer tests: schedule math, optimizer, freezing, persistence.

The AdamW oracle is an independently written reference loop compared
bitwise. Freeze semantics are checked by hashing parameter bytes before
and after a stage. Determinism is checked by running identical stages
twice and comparing metric streams, and resume is checked by comparing
load-then-train against train-through at byte level.
"""

import gc
import hashlib
import json
import os
import tracemalloc
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from tilefusion import tensor as tz
from tilefusion.assembly import EOS_ID, SequenceBatch
from tilefusion.datagen import (ANSWER_ALPHABET, N_TEXTURES, generate,
                                render_complementary)
from tilefusion.encoders import Encoder, EncoderConfig, lowpass_pixels
from tilefusion.errors import ConfigError, ContractError, DimensionError
from tilefusion.experiment import (build_pipeline_config, build_task_spec,
                                   load_config)
from tilefusion.lm import LanguageModel, LMConfig
from tilefusion import model as model_module
from tilefusion.model import Pipeline, PipelineConfig
from tilefusion.tensor import Parameter
from tilefusion.tiling import ImageBuffer, image_from_u8
from tilefusion.training import (
    ENCODER_PREFIXES,
    STAGE_NAMES,
    AdamW,
    Checkpoint,
    MetricsRecord,
    StageConfig,
    StagePlan,
    TrainingConfig,
    batch_indices,
    config_hash,
    cosine_lr,
    read_metrics,
    restore,
    run_stage,
    snapshot,
    stage_plan,
)

import per_image_oracle as oracle
from fusion_oracle import provenance
from oracle_ops import add, as_node, backward, mul_scalar, relative_error
from per_image_oracle import (arrays, as_batch, lm_loss, pad_batch,
                              reference_loss, uncached_loss)


@dataclass
class Sample:
    images: list
    question: str
    answer: str


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def tiny_cfg(ctx=96, fusion="post-interleave"):
    enc_a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                          grid_side=4, unshuffle_r=2)
    enc_b = EncoderConfig(patch_size=2, embed_dim=8, depth=1, heads=2,
                          grid_side=8, unshuffle_r=2)
    return PipelineConfig(
        encoder_a=enc_a, encoder_b=enc_b,
        lm=LMConfig(d_lm=16, layers=1, heads=2, context_limit=ctx),
        max_tiles=4, fusion=fusion, projector_hidden=8)


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

    def test_step_allocates_less_than_one_flat_buffer(self):
        rng = np.random.default_rng(5)
        params = [Parameter("a", rng.standard_normal((200, 200))),
                  Parameter("b", rng.standard_normal((100, 100)))]
        opt = AdamW(params, weight_decay=0.01)
        assert opt.data.size == 50_000
        for p in params:
            p.grad = rng.standard_normal(p.data.shape)
        tracemalloc.start()
        try:
            opt.step(0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < opt.data.nbytes

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
    model.set_frozen(stage_plan("stage2", steps=1).frozen_prefixes)
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
        plan = stage_plan("stage1", steps=100)
        assert set(plan.frozen_prefixes) >= {"encoderA.", "encoderB.",
                                             "lm."}
        assert plan.base_lr == 4e-4
        assert plan.weight_decay == 0.01
        assert plan.warmup_steps == 3

    def test_stage2_trains_the_lm(self):
        plan = stage_plan("stage2", steps=200, base_lr=4e-5)
        assert "lm." not in plan.frozen_prefixes
        assert set(plan.frozen_prefixes) >= {"encoderA.", "encoderB."}
        assert plan.warmup_steps == 6

    def test_extra_frozen_prefixes_are_kept(self):
        plan = stage_plan("stage1", steps=10, extra_frozen=("projectorA.",))
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
            stage_plan("stage1", steps=0)
        with pytest.raises(ConfigError):
            stage_plan("stage1", steps=10, warmup_steps=11)
        with pytest.raises(ConfigError):
            stage_plan("stage1", steps=10, base_lr=0.0)
        with pytest.raises(ConfigError):
            stage_plan("stage1", steps=10, weight_decay=-0.1)


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

    def test_wrong_parameter_set_rejected(self):
        m1 = tiny_pipe(seed=1)
        ckpt = snapshot(m1, step=0, stage="stage1")
        other = Pipeline(replace(tiny_cfg(), encoders="A"), seed=1)
        # past the config-hash check, to the parameter-name check
        ckpt.manifest["config_hash"] = config_hash(other.cfg)
        with pytest.raises(ContractError, match="parameter names differ"):
            restore(other, ckpt)

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

    @pytest.mark.parametrize("edit", ["list", "no-params",
                                      "swapped-offsets"])
    def test_malformed_manifest_rejected(self, tmp_path, edit):
        snapshot(tiny_pipe(seed=1), step=0, stage="stage1").save(tmp_path)
        path = os.path.join(tmp_path, "manifest.json")
        with open(path) as f:
            man = json.load(f)
        if edit == "list":
            man = man["params"]
        elif edit == "no-params":
            del man["params"]
        else:
            # two entries of one shape: the blob and its digest still
            # match, only the weights would land on the wrong names
            by_shape = {}
            for e in man["params"]:
                by_shape.setdefault(tuple(e["shape"]), []).append(e)
            a, b = next(es for es in by_shape.values() if len(es) > 1)[:2]
            a["offset"], b["offset"] = b["offset"], a["offset"]
        with open(path, "w") as f:
            json.dump(man, f)
        with pytest.raises(ContractError, match="manifest"):
            Checkpoint.load(tmp_path)

    def test_truncated_manifest_rejected(self, tmp_path):
        snapshot(tiny_pipe(seed=1), step=0, stage="stage1").save(tmp_path)
        path = os.path.join(tmp_path, "manifest.json")
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:len(raw) // 2])
        with pytest.raises(ContractError, match="manifest is not JSON"):
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
            run_stage(stage_plan("stage1", steps=1), tiny_pipe(), [], seed=0)

    def test_nan_loss_aborts_with_step(self):
        pipe = tiny_pipe(seed=0)
        pipe.lm.head.data[...] = np.nan
        with pytest.raises(ContractError) as err:
            run_stage(stage_plan("stage1", steps=3), pipe, make_dataset(2),
                      seed=0)
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
            run_stage(stage_plan("stage1", steps=3), pipe, make_dataset(2),
                      seed=0)
        msg = str(err.value)
        assert "projectorB.w1" in msg
        assert "stage1" in msg and "step 0" in msg
        assert param_bytes(pipe, ("",)) == before

    def test_metrics_stream_shape(self):
        plan = stage_plan("stage1", steps=6, warmup_steps=2, base_lr=1e-3)
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
        plan = stage_plan("stage1", steps=5, warmup_steps=1, base_lr=1e-3)
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
        plan = stage_plan("stage1", steps=30, warmup_steps=2, base_lr=2e-3)
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
        run_stage(stage_plan("stage1", steps=10, warmup_steps=1, base_lr=2e-3),
                  pipe, data, seed=11, batch_size=4)
        enc_before = param_bytes(pipe, ("encoderA.", "encoderB."))
        lm_before = param_bytes(pipe, ("lm.",))
        proj_before = param_bytes(pipe, ("projector",))
        plan = stage_plan("stage2", steps=10, warmup_steps=1, base_lr=5e-4)
        _, recs = run_stage(plan, pipe, data, seed=12, batch_size=4)
        assert param_bytes(pipe, ("encoderA.", "encoderB.")) == enc_before
        lm_after = param_bytes(pipe, ("lm.",))
        assert any(lm_after[k] != lm_before[k] for k in lm_before)
        proj_after = param_bytes(pipe, ("projector",))
        assert any(proj_after[k] != proj_before[k] for k in proj_before)
        assert recs[-1].loss < recs[0].loss

    def test_out_dir_writes_metrics_and_checkpoint(self, tmp_path):
        plan = stage_plan("stage1", steps=4, warmup_steps=1, base_lr=1e-3)
        out = str(tmp_path / "run")
        ckpt, recs = run_stage(plan, tiny_pipe(seed=5), make_dataset(2),
                               seed=6, batch_size=2, out_dir=out,
                               clock=fake_clock())
        from_disk = read_metrics(os.path.join(out, "metrics.jsonl"))
        assert from_disk == recs
        loaded = Checkpoint.load(out)
        assert loaded.blob == ckpt.blob
        assert loaded.manifest == ckpt.manifest

    def test_metrics_file_holds_every_earlier_record_at_each_step(
            self, tmp_path):
        # a clock that reads the file: run_stage calls it at the start
        # and the end of each step, and at the start of a step the file
        # must hold every record of the steps before it
        plan = stage_plan("stage1", steps=5, warmup_steps=1, base_lr=1e-3)
        out = tmp_path / "run"
        out.mkdir()
        path = out / "metrics.jsonl"
        path.write_text(MetricsRecord(0, "stage0", 0.0, 1.0, 2.0)
                        .to_json_line() + "\n")
        seen, tick = [], fake_clock()

        def clock():
            seen.append(read_metrics(str(path)))
            return tick()

        _, recs = run_stage(plan, tiny_pipe(seed=5), make_dataset(2),
                            seed=6, batch_size=2, out_dir=str(out),
                            clock=clock)
        assert len(seen) == 2 * plan.steps
        for step in range(plan.steps):
            assert seen[2 * step][1:] == recs[:step]
        from_disk = read_metrics(str(path))
        assert from_disk[0].stage == "stage0"  # appended, not truncated
        assert from_disk[1:] == recs

    def test_step_frees_its_activations_before_the_next_forward(self):
        # step k's backward closure holds all of its activations: it
        # must be dead, with no cycle collection, once step k+1's loss
        # is entered, so two steps' activations never coexist
        pipe = tiny_pipe(seed=5)
        real_loss = pipe.loss
        closures, alive = [], []

        def loss(samples, tokens):
            alive.append([ref() is not None for ref in closures])
            value, step_backward = real_loss(samples, tokens)
            closures.append(weakref.ref(step_backward))
            return value, step_backward

        pipe.loss = loss
        gc.disable()
        try:
            run_stage(stage_plan("stage1", steps=3), pipe, make_dataset(2),
                      seed=6, batch_size=2)
        finally:
            gc.enable()
        assert alive == [[], [False], [False, False]]

    def test_resume_reproduces_next_step_loss_exactly(self, tmp_path):
        data = make_dataset(4)
        first = stage_plan("stage1", steps=4, warmup_steps=1, base_lr=1e-3)
        m1 = tiny_pipe(seed=7)
        ckpt, _ = run_stage(first, m1, data, seed=21, batch_size=2,
                            out_dir=str(tmp_path))

        m2 = tiny_pipe(seed=8)  # different init, fully overwritten
        restore(m2, Checkpoint.load(str(tmp_path)))

        cont = stage_plan("stage1", steps=1, warmup_steps=0, base_lr=1e-3)
        _, rec1 = run_stage(cont, m1, data, seed=22, batch_size=2)
        _, rec2 = run_stage(cont, m2, data, seed=22, batch_size=2)
        assert rec1[0].loss == rec2[0].loss
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes(), p1.name


def test_gapped_trainable_set_trains_only_its_own_slices():
    # post-channel orders projectorA, projectorB, fusion.down: freezing
    # projectorB leaves a gap inside the trained set
    model = Pipeline(equal_token_cfg("post-channel"), seed=5)
    plan = stage_plan("stage1", steps=3, warmup_steps=1, base_lr=2e-3,
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
    """run_stage's recipe on the uncached path (oracle.uncached_batch)."""
    model.set_frozen(plan.frozen_prefixes)
    params = model.parameters()
    opt = AdamW(params, weight_decay=plan.weight_decay)
    stage_index = STAGE_NAMES.index(plan.name) + 1
    losses = []
    for step in range(plan.steps):
        idx = batch_indices(seed, stage_index, step, len(dataset),
                            batch_size)
        samples = [dataset[int(i)] for i in idx]
        mean = reference_loss(model.lm, oracle.uncached_batch(model, samples))
        losses.append(mean.item())
        for p in params:
            p.grad = None
        backward(mean)
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
    plans = [stage_plan("stage1", steps=4, warmup_steps=1, base_lr=2e-3),
             stage_plan("stage2", steps=4, warmup_steps=1, base_lr=5e-4)]
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
    """The slow path: one per-image oracle graph per sample, chained."""
    losses = [reference_loss(model.lm, as_batch(
        oracle.assemble(model, s.images, s.question, s.answer)[0]))
        for s in samples]
    total = losses[0]
    for extra in losses[1:]:
        total = add(total, extra)
    return mul_scalar(total, 1.0 / len(losses))


def batched_mean(model, samples):
    """run_stage's batch, with the loss over every logit."""
    return reference_loss(model.lm, oracle.uncached_batch(model, samples))


def trainable_grads(model, loss):
    for p in model.parameters():
        p.grad = None
    backward(loss)
    return {p.name: p.grad for p in model.parameters() if not p.frozen}


def stage2_model():
    model = Pipeline(tiny_cfg(ctx=192), seed=5)
    model.set_frozen(stage_plan("stage2", steps=1).frozen_prefixes)
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
        assert relative_error(got[name], g) <= 1e-12, name


def test_padding_does_not_leak_into_a_shorter_sample():
    model = stage2_model()
    seqs = [oracle.assemble(model, s.images, s.question, s.answer)[0]
            for s in mixed_dataset()]
    short, long_a, long_b = seqs[1], seqs[0], seqs[2]
    assert short.length < long_a.length == long_b.length
    n = short.length
    alone = model.lm.forward(arrays(as_batch(short)))[0]
    beside_a = model.lm.forward(arrays(pad_batch([short, long_a])))
    beside_b = model.lm.forward(arrays(pad_batch([long_b, short])))
    # at one padded length, nothing of the partner reaches the short rows
    assert beside_a[0, :n].tobytes() == beside_b[1, :n].tobytes()
    assert relative_error(beside_a[0, :n], alone) <= 1e-13
    # an unpadded sample's rows are bitwise its unbatched rows
    assert beside_a[1].tobytes() == \
        model.lm.forward(arrays(as_batch(long_a)))[0].tobytes()


def test_batched_loss_gradient_matches_finite_differences():
    model = stage2_model()
    data = mixed_dataset()
    grads = trainable_grads(model, batched_mean(model, data))
    d = model.cfg.lm.d_lm
    short = oracle.uncached_batch(model, data[1:2])
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
        assert relative_error(got, fd) < 1e-4, p.name


@pytest.mark.parametrize("data", [make_dataset(4), mixed_dataset()],
                         ids=["equal-length", "mixed-length"])
def test_lm_loss_matches_forward_loss(data):
    """run_stage's LanguageModel.loss, which runs the last block and the
    head only on rows the loss reads, against reference_loss."""
    model = stage2_model()
    want_loss = batched_mean(model, data)
    want = trainable_grads(model, want_loss)
    got_loss = uncached_loss(model, data)
    got = trainable_grads(model, got_loss)
    assert abs(got_loss.item() - want_loss.item()) <= \
        1e-15 * want_loss.item()
    assert got.keys() == want.keys()
    for name, g in want.items():
        assert relative_error(got[name], g) <= 1e-12, name


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
def test_batched_image_side_matches_per_image_oracle(layout):
    model = Pipeline(LAYOUTS[layout], seed=5)
    model.set_frozen(stage_plan("stage2", steps=1).frozen_prefixes)
    data = mixed_dataset()
    tokens = [[model.frozen_tokens(img) for img in s.images] for s in data]
    flat = [t for per_sample in tokens for t in per_sample]

    # rows and provenance of every image, from one fused pass
    fused = model.fuse_images(flat)
    start = tile0 = 0
    for t in flat:
        want = oracle.fuse_tokens(model, t)
        n = want.n_tokens
        assert fused.embeddings[start:start + n].tobytes() == \
            want.embeddings.data.tobytes()
        assert [(tile - tile0, b, i) for tile, b, i
                in provenance(fused)[start:start + n]] == provenance(want)
        start += n
        tile0 += next(iter(t.values())).shape[0]
    assert start == fused.n_tokens
    assert fused.per_tile == model.cfg.tokens_per_tile()

    got = model.assemble_batch(data, tokens)
    want, _ = oracle.assemble_batch(model, data, tokens)
    assert got.embeddings.tobytes() == want.embeddings.data.tobytes()
    assert got.token_ids.tobytes() == want.token_ids.tobytes()
    assert got.loss_mask.tobytes() == want.loss_mask.tobytes()

    want_loss = lm_loss(model.lm, want)
    want_grads = trainable_grads(model, want_loss)
    got_loss = as_node(*model.loss(data, tokens), model.parameters())
    got_grads = trainable_grads(model, got_loss)
    assert got_loss.item().hex() == want_loss.item().hex()
    assert got_grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert relative_error(got_grads[name], g) <= 1e-12, name


# A training step's backward is one closure (Pipeline.loss): the LM's,
# the splice's and the fusion's hand-derived backwards chained. Value
# and every gradient must be bitwise those of the same step composed op
# by op (oracle.uncached_batch, then oracle.lm_loss), under each freeze
# a stage applies (set_frozen alone, with no other flag); frozen
# parameters get no gradient at all.
STEP_LAYOUTS = {**LAYOUTS, "A-only": replace(tiny_cfg(ctx=192), encoders="A")}


def all_grads(model, loss):
    for p in model.parameters():
        p.grad = None
    backward(loss)
    return {p.name: None if p.grad is None else p.grad.tobytes()
            for p in model.parameters()}


@pytest.mark.parametrize("freeze", ["stage1", "stage2",
                                    "freeze_vision_adapters"])
@pytest.mark.parametrize("layout", sorted(STEP_LAYOUTS))
def test_step_is_one_node_equal_to_composed_oracle_bitwise(layout, freeze):
    model = Pipeline(STEP_LAYOUTS[layout], seed=5)
    params = model.parameters()
    training = TrainingConfig(
        StageConfig(steps=1), StageConfig(steps=1),
        freeze_vision_adapters=freeze == "freeze_vision_adapters")
    plans, _ = training.plans([p.name for p in params])
    model.set_frozen((plans[-1] if freeze == "stage2" else plans[0])
                     .frozen_prefixes)
    data = mixed_dataset()
    got = oracle.uncached_loss(model, data)
    got_grads = all_grads(model, got)
    want = lm_loss(model.lm, oracle.uncached_batch(model, data))
    want_grads = all_grads(model, want)
    assert got.item().hex() == want.item().hex()
    assert got_grads == want_grads
    for p in params:
        assert (got_grads[p.name] is None) == p.frozen, p.name


# answer splices one sample through the one-row array assembler
# (model.splice), fusing each image on its own; its prompt is the
# per-image oracle's sample with an empty answer and the closing EOS
# slot trimmed, bitwise, and its answer is the uncached greedy oracle's
# on that prompt.
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_answer_prompt_matches_per_image_oracle(layout, monkeypatch):
    model = Pipeline(LAYOUTS[layout], seed=5)
    prompts, seen = [], []
    real_decode = LanguageModel.greedy_decode
    monkeypatch.setattr(
        LanguageModel, "greedy_decode",
        lambda self, batch, *a, **k: prompts.append(batch)
        or real_decode(self, batch, *a, **k))
    real_splice = model_module.splice
    monkeypatch.setattr(model_module, "splice",
                        lambda *a: seen.append(a[2]) or real_splice(*a))
    # a two-tile image with a thumbnail, a two-image sample, and a sample
    # of two images of 3 and 1 tiles, whose marker runs differ in length
    wide, pair = mixed_dataset()[:2]
    assert [img.pixels.shape[:2] for img in wide.images] == [(16, 32)]
    assert len(pair.images) == 2
    uneven = Sample(wide.images + pair.images[:1], "which?", "")
    for s in (wide, pair, uneven):
        text = model.answer(s.images, s.question, max_new=4)
        got = prompts.pop()
        seq, want_vis = oracle.assemble(model, s.images, s.question, "")
        L = seq.length - 1
        assert seq.token_ids[L] == EOS_ID
        assert got.embeddings.tobytes() == \
            seq.embeddings.data[None, :L].tobytes()
        assert got.token_ids.tobytes() == seq.token_ids[None, :L].tobytes()
        assert got.loss_mask.tobytes() == seq.loss_mask[None, :L].tobytes()
        # splice got each image's own rows and provenance
        assert [(v.embeddings.tobytes(), provenance(v))
                for v in seen.pop()] == \
            [(v.embeddings.data.tobytes(), provenance(v)) for v in want_vis]
        want = SequenceBatch(seq.embeddings.data[None, :L],
                             seq.token_ids[None, :L],
                             seq.loss_mask[None, :L])
        want_ids = oracle.uncached_greedy(model.lm, want, 4, eos_id=EOS_ID)
        assert text == model.tokenizer.decode(want_ids)


class EncodeSpy:
    """Records (encoder prefix, input shape, input bytes) of every
    Encoder.encode; the input is the encoder's patch_rows, its rows
    argument."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = Encoder.encode

        def spy(encoder, tiles, rows):
            self.calls.append((encoder.prefix, rows.shape, rows.tobytes()))
            return original(encoder, tiles, rows)

        monkeypatch.setattr(Encoder, "encode", spy)


def cache_plans():
    # batch_size = len(data) below: every step draws every sample
    return [stage_plan("stage1", steps=2, warmup_steps=1, base_lr=2e-3),
            stage_plan("stage2", steps=2, warmup_steps=1, base_lr=5e-4)]


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
    # an f32 value, so a snapshot leaves it as it is
    model.encoder_b.pos.data[0, 0] = 0.5


def restore_other_weights(model):
    restore(model, snapshot(Pipeline(model.cfg, seed=99), 0, "stage1"))


def cache_bytes(model):
    return ({key: {label: grid.tobytes() for label, grid in t.items()}
             for key, t in model.token_cache.items()},
            {key: grid.tobytes() for key, grid in model.view_cache.items()})


# The caches hold for a Pipeline's life: once filled, a weight change,
# in place or by restore, raises ValueError where it writes and changes
# nothing, and the next stage still encodes nothing. The encoder arrays
# stay read-only and unchanged through a stage.
@pytest.mark.parametrize("change", [bump_encoder_weight, restore_other_weights],
                         ids=["in-place-write", "restore"])
def test_token_cache_refills_when_encoder_weights_change(monkeypatch, change):
    spy = EncodeSpy(monkeypatch)
    data = mixed_dataset()
    model = Pipeline(lowpass_a_cfg(), seed=5)
    stage1, stage2 = cache_plans()
    run_stage(stage1, model, data, seed=13, batch_size=len(data))
    weights = param_bytes(model, ("",))
    caches = cache_bytes(model)
    assert caches[0] and caches[1]
    with pytest.raises(ValueError, match="read-only"):
        change(model)
    assert param_bytes(model, ("",)) == weights
    assert cache_bytes(model) == caches
    before = len(spy.calls)
    run_stage(stage2, model, data, seed=14, batch_size=len(data))
    assert len(spy.calls) == before
    assert cache_bytes(model) == caches
    encoders = model.encoder_a.parameters() + model.encoder_b.parameters()
    assert not any(p.data.flags.writeable for p in encoders)
    assert param_bytes(model, ENCODER_PREFIXES) == \
        {k: v for k, v in weights.items() if k.startswith(ENCODER_PREFIXES)}


# Encoder arrays lock at the first fill, not at construction: a fresh
# Pipeline's weights can still be written (restore into it is how a run
# is re-evaluated), and no other parameter ever locks.
def test_first_fill_locks_the_encoder_weights_alone():
    model = Pipeline(lowpass_a_cfg(), seed=5)
    assert all(p.data.flags.writeable for p in model.parameters())
    model.frozen_tokens(mixed_dataset()[0].images[0])
    for p in model.parameters():
        assert p.data.flags.writeable != p.name.startswith(ENCODER_PREFIXES)


# Only a filtered branch keeps view entries: an unfiltered branch's view
# could only be asked for on the image miss that would write it.
def test_unfiltered_branch_keeps_no_view_entry():
    model = Pipeline(lowpass_a_cfg(), seed=5)
    images = [img for s in mixed_dataset() for img in s.images]
    for img in images:
        model.frozen_tokens(img)
    assert len(model.token_cache) == len(images)
    assert {key[0] for key in model.view_cache} == {"A"}


def sha1_calls(monkeypatch, model, pixels):
    """hashlib.sha1 calls so far after each of: a first frozen_tokens of
    an image, the same buffer again, then an equal image in a new buffer;
    the last two must return the first call's grids."""
    hashed = []
    sha1 = hashlib.sha1
    monkeypatch.setattr(hashlib, "sha1",
                        lambda data=b"": hashed.append(1) or sha1(data))
    img = ImageBuffer(pixels)
    first = model.frozen_tokens(img)
    counts = [len(hashed)]
    assert model.frozen_tokens(img) is first
    counts.append(len(hashed))
    assert model.frozen_tokens(ImageBuffer(pixels.copy())) is first
    counts.append(len(hashed))
    return counts


# A miss hashes the image's content_key, and an unfiltered branch hashes
# nothing more; a repeat is a hit; an equal image in another buffer is
# hashed once, then a hit.
def test_frozen_tokens_hashes_each_image_once(monkeypatch):
    model = Pipeline(tiny_cfg(ctx=192), seed=5)
    pixels = np.random.default_rng(8).random((16, 32, 3))
    assert sha1_calls(monkeypatch, model, pixels) == [1, 1, 2]


# A filtered branch's view is its patch_rows, hashed once per miss.
def test_frozen_tokens_hashes_each_filtered_view_once(monkeypatch):
    cfg = tiny_cfg(ctx=192)
    cfg = replace(cfg, encoder_a=replace(cfg.encoder_a,
                                         input_filter="lowpass"))
    model = Pipeline(cfg, seed=5)
    pixels = np.random.default_rng(8).random((16, 32, 3))
    assert sha1_calls(monkeypatch, model, pixels) == [2, 2, 3]


def test_new_pipeline_starts_with_empty_token_cache(monkeypatch):
    spy = EncodeSpy(monkeypatch)
    data = mixed_dataset()
    plan = cache_plans()[0]
    first = Pipeline(tiny_cfg(ctx=192), seed=5)
    run_stage(plan, first, data, seed=13, batch_size=len(data))
    assert len(first.token_cache) == distinct_images(data)
    second = Pipeline(tiny_cfg(ctx=192), seed=5)
    assert second.token_cache == {} and second.view_cache == {}
    before = len(spy.calls)
    run_stage(plan, second, data, seed=13, batch_size=len(data))
    assert len(spy.calls) - before == 2 * distinct_images(data)


def lowpass_a_cfg():
    cfg = tiny_cfg(ctx=192)
    return replace(cfg, encoder_a=replace(cfg.encoder_a,
                                          input_filter="lowpass"))


def lazy_encode_order(model, data, plan, seed, batch_size):
    """(prefix, rows shape, rows bytes) of every encode that frozen_tokens
    called step by step would run: each image a step draws, in step,
    sample and image order, each branch's view the first time it is
    seen. Images here are distinct, so a view is its rows."""
    stage_index = STAGE_NAMES.index(plan.name) + 1
    seen, order = set(), []
    for step in range(plan.steps):
        for i in batch_indices(seed, stage_index, step, len(data),
                               batch_size):
            for img in data[int(i)].images:
                tiles = model.segment_image(img)
                for enc in (model.encoder_a, model.encoder_b):
                    rows = enc.patch_rows(tiles)
                    key = (enc.prefix, rows.shape, rows.tobytes())
                    if key not in seen:
                        seen.add(key)
                        order.append(key)
    return order


# A stage encodes its whole schedule's images before its first step, in
# the order the steps would have asked for them, and nothing else.
def test_stage_encodes_its_schedule_before_its_first_step(monkeypatch):
    data = mixed_dataset()
    model = Pipeline(lowpass_a_cfg(), seed=5)
    spy = EncodeSpy(monkeypatch)
    encodes_at_loss = []
    real_loss = Pipeline.loss

    def loss(self, samples, tokens):
        encodes_at_loss.append(len(spy.calls))
        return real_loss(self, samples, tokens)

    monkeypatch.setattr(Pipeline, "loss", loss)
    plan = stage_plan("stage1", steps=3, warmup_steps=1, base_lr=2e-3)
    # seed 0 draws samples {2, 5}, {3, 5}, {2, 5}: step 1 brings a new
    # image, step 2 none, and samples 0, 1 and 4 are never drawn
    draws = [set(batch_indices(0, 1, step, len(data), 2).tolist())
             for step in range(plan.steps)]
    assert draws[1] - draws[0] and not draws[2] - draws[0] - draws[1]
    want = lazy_encode_order(model, data, plan, seed=0, batch_size=2)
    run_stage(plan, model, data, seed=0, batch_size=2)
    assert spy.calls == want
    assert encodes_at_loss == [len(want)] * plan.steps
    undrawn = [img for k, s in enumerate(data) if k not in set().union(*draws)
               for img in s.images]
    assert undrawn
    assert all(img.content_key not in model.token_cache for img in undrawn)


# A miss computes each branch's patch_rows once: a filtered branch
# hashes them and, on a view miss, encodes the same array.
def test_frozen_tokens_miss_computes_each_branch_rows_once(monkeypatch):
    model = Pipeline(lowpass_a_cfg(), seed=5)
    spy = EncodeSpy(monkeypatch)
    calls = []
    real_rows = Encoder.patch_rows

    def patch_rows(encoder, tiles):
        calls.append(encoder.prefix)
        return real_rows(encoder, tiles)

    monkeypatch.setattr(Encoder, "patch_rows", patch_rows)
    rng = np.random.default_rng(8)
    # one tile, no resize; zero-sum detail inside each 2 x 2 block keeps
    # the lowpass view
    base = rng.integers(8, 248, size=(16, 16, 3))
    detail = np.tile(np.array([[5, -5], [-5, 5]]), (8, 8))[:, :, None]
    first = image_from_u8(base.astype(np.uint8))
    same_view = image_from_u8((base + detail).astype(np.uint8))
    model.frozen_tokens(first)
    assert calls == ["encoderA", "encoderB"]
    assert [c[0] for c in spy.calls] == ["encoderA", "encoderB"]
    model.frozen_tokens(first)
    assert len(calls) == 2  # an image hit computes no rows
    model.frozen_tokens(same_view)
    assert calls == ["encoderA", "encoderB"] * 2
    assert [c[0] for c in spy.calls] == ["encoderA", "encoderB",
                                         "encoderB"]


# The encoder pass is timed in step 0, so a stage's wall_ms values add
# up to the span of its clock, under a clock that only the encoder and
# the loss move.
def test_stage_wall_ms_adds_up_to_its_clock_span(monkeypatch):
    now, readings = [0.0], []

    def clock():
        readings.append(now[0])
        return now[0]

    def costing(seconds, fn):
        def timed(*args):
            now[0] += seconds
            return fn(*args)
        return timed

    monkeypatch.setattr(Encoder, "encode", costing(0.005, Encoder.encode))
    monkeypatch.setattr(Pipeline, "loss", costing(0.001, Pipeline.loss))
    data = mixed_dataset()
    model = Pipeline(tiny_cfg(ctx=192), seed=5)
    plan = stage_plan("stage1", steps=4, warmup_steps=1, base_lr=2e-3)
    _, recs = run_stage(plan, model, data, seed=13, batch_size=2,
                        clock=clock)
    encodes = 2 * len(model.token_cache)
    assert encodes > 0
    walls = [r.wall_ms for r in recs]
    assert walls[0] == pytest.approx(5.0 * encodes + 1.0)
    assert walls[1:] == pytest.approx([1.0] * (plan.steps - 1))
    assert sum(walls) == pytest.approx((readings[-1] - readings[0]) * 1e3)


def shipped_complementary(n_train):
    """A complementary-hybrid train split of n_train samples, and the
    shipped model built from that config."""
    cfg = load_config(CONFIG_DIR / "complementary-hybrid.json")
    spec = build_task_spec({**cfg["task"], "n_train": n_train, "n_eval": 0})
    model = Pipeline(build_pipeline_config(cfg["model"]), seed=cfg["seed"])
    return generate(spec).train, model


# answer reads and fills the same caches as training: a repeat image
# encodes nothing, and a new image whose highpass view (its texture) was
# seen runs only branch A.
def test_answer_encodes_only_new_views(monkeypatch):
    _, model = shipped_complementary(0)
    spy = EncodeSpy(monkeypatch)

    def render(shape, jx, texture):
        return image_from_u8(render_complementary(32, shape, texture, jx, 2,
                                                  70, 180))

    def encodes(image):
        before = len(spy.calls)
        model.answer([image], "which?", max_new=2)
        return [prefix for prefix, _, _ in spy.calls[before:]]

    first = render(0, 0, 1)
    assert encodes(first) == ["encoderA", "encoderB"]
    assert encodes(first) == []
    assert encodes(render(0, 0, 1)) == []  # an equal image, another buffer
    assert encodes(render(1, 3, 1)) == ["encoderA"]
    assert encodes(render(1, 3, 2)) == ["encoderB"]


def answer_prompts(monkeypatch, model, samples, max_new=4):
    """(answer, prompt bytes handed to greedy_decode) per sample."""
    prompts, out = [], []
    real_decode = LanguageModel.greedy_decode
    with monkeypatch.context() as m:
        m.setattr(LanguageModel, "greedy_decode",
                  lambda self, batch, *a, **k: prompts.append(batch)
                  or real_decode(self, batch, *a, **k))
        for s in samples:
            text = model.answer(s.images, s.question, max_new=max_new)
            batch = prompts.pop()
            out.append((text, batch.embeddings.tobytes(),
                        batch.token_ids.tobytes(),
                        batch.loss_mask.tobytes()))
    return out


# On the shipped complementary config, after a training stage filled the
# caches, answers to trained and new samples, cold and then warm, equal
# the uncached branch_tokens path on a twin with the same weights,
# bitwise; some new images hit a view another image encoded.
def test_answer_matches_uncached_branch_tokens_path(monkeypatch):
    cfg = load_config(CONFIG_DIR / "complementary-hybrid.json")
    spec = build_task_spec({**cfg["task"], "n_train": 24, "n_eval": 24})
    data = generate(spec)
    model = Pipeline(build_pipeline_config(cfg["model"]), seed=cfg["seed"])
    ckpt, _ = run_stage(stage_plan("stage1", steps=2, warmup_steps=1,
                                   base_lr=3e-3),
                        model, data.train, seed=3, batch_size=8)
    uncached = Pipeline(model.cfg, seed=cfg["seed"])
    restore(uncached, ckpt)
    monkeypatch.setattr(uncached, "frozen_tokens",
                        lambda img: oracle.branch_tokens(uncached, img))
    samples = data.train[:8] + data.eval
    want = answer_prompts(monkeypatch, uncached, samples)
    assert uncached.token_cache == {} and uncached.view_cache == {}
    images, views = len(model.token_cache), len(model.view_cache)
    assert answer_prompts(monkeypatch, model, samples + samples) == \
        want + want
    new_images = len(model.token_cache) - images
    assert 0 < len(model.view_cache) - views < 2 * new_images


# A weight change before the first fill, in place or by restore, is what
# the answers see: they equal a fresh Pipeline's restored from the
# changed weights. After the first fill the change raises ValueError and
# the answers stand.
@pytest.mark.parametrize("change", [bump_encoder_weight, restore_other_weights],
                         ids=["in-place-write", "restore"])
def test_answer_resyncs_after_encoder_weight_change(monkeypatch, change):
    data = mixed_dataset()
    model = Pipeline(tiny_cfg(ctx=192), seed=5)
    untouched = answer_prompts(monkeypatch, Pipeline(model.cfg, seed=5), data)
    change(model)
    fresh = Pipeline(model.cfg, seed=5)
    restore(fresh, snapshot(model, 0, "stage1"))
    want = answer_prompts(monkeypatch, fresh, data)
    assert answer_prompts(monkeypatch, model, data) == want
    assert [p[1] for p in want] != [p[1] for p in untouched]
    with pytest.raises(ValueError, match="read-only"):
        change(model)
    assert answer_prompts(monkeypatch, model, data) == want


# Branch A sees a lowpass view, which no texture changes, and branch B a
# highpass view, which depends on the texture alone: each encoder runs
# once per distinct view, and the cache still returns each image's own
# branch_tokens, bitwise.
def test_view_cache_encodes_each_distinct_view_once(monkeypatch):
    data, model = shipped_complementary(48)
    spy = EncodeSpy(monkeypatch)
    # a small split rarely repeats a lowpass view, so add two shapes in
    # two placements, each in every texture
    images = [img for s in data for img in s.images] + [
        image_from_u8(render_complementary(32, shape, texture, jx, 2,
                                           70, 180))
        for shape in (0, 1) for jx in (0, 3) for texture in range(N_TEXTURES)]
    tokens = [model.frozen_tokens(img) for img in images]
    textures = {ANSWER_ALPHABET.index(s.answer) % N_TEXTURES for s in data}
    block = model.cfg.encoder_a.filter_block
    lowpass = {lowpass_pixels(img.pixels, block).tobytes() for img in images}
    n_images = len({img.content_key for img in images})
    assert len(lowpass) < n_images and len(textures) < n_images
    encodes = Counter(prefix for prefix, _, _ in spy.calls)
    assert encodes == {"encoderA": len(lowpass), "encoderB": len(textures)}
    assert len(model.token_cache) == n_images
    assert len(model.view_cache) == len(lowpass) + len(textures)
    for img, got in zip(images, tokens):
        want = oracle.branch_tokens(model, img)
        assert got.keys() == want.keys()
        for label in want:
            assert got[label].tobytes() == want[label].tobytes()


# The gain of the view cache rests on this: the shipped complementary
# data gives branch B no more distinct inputs than there are textures.
def test_shipped_complementary_branch_b_sees_at_most_n_textures_views():
    data, model = shipped_complementary(64)
    enc = model.encoder_b
    views = {enc.patch_rows(model.segment_image(img)).tobytes()
             for s in data for img in s.images}
    assert len(views) <= N_TEXTURES


def test_metrics_record_round_trips_json():
    rec = MetricsRecord(step=3, stage="stage2", lr=0.25, loss=1.5,
                        wall_ms=12.0)
    assert MetricsRecord(**json.loads(rec.to_json_line())) == rec


def test_config_hash_stable_and_sensitive():
    a = config_hash(tiny_cfg())
    assert a == config_hash(tiny_cfg())
    assert a != config_hash(replace(tiny_cfg(), max_tiles=2))
    assert len(a) == 64
