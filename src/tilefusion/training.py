"""Two-stage training: freeze plans, AdamW, cosine schedule, checkpoints.

Stage 1 freezes both encoders and the LM and trains the projectors.
Stage 2 keeps the encoders frozen and finetunes projectors plus LM.
Freezing is enforced by parameter-name prefix. Because the encoders
are frozen in every stage, run_stage trains on their cached, detached
output tokens (Pipeline.frozen_tokens): the cache lives on the
Pipeline, so the encoders run once per distinct image per Pipeline,
across both stages, until the encoder weights change. Inside run_stage
no frozen parameter receives a gradient, and each stage's AdamW holds
only the parameters that stage trains, as views into its one flat
buffer. Pipeline.forward_sample itself keeps the full graph back into
both encoders.

Each step builds one right-padded [B, L, d] batch
(Pipeline.assemble_batch: one projector/fusion pass over all the step's
images, one row gather) and runs the LM on it once: one graph per step,
not one per sample. The causal mask keeps every pad out of every real
position's attention, and pads carry no loss, so the step loss is the
mean of the samples' masked losses.

Every step draws its batch from a generator keyed by (seed, stage,
step), so a resumed run reconstructs the exact batch sequence without
replaying RNG history. Checkpoints store one little-endian f32 blob in
manifest order; saving quantizes the live parameters to the same f32
values, which makes resume-then-train bitwise equal to train-through.
"""

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, ContractError, DimensionError

ENCODER_PREFIXES = ("encoderA.", "encoderB.")
STAGE_NAMES = ("stage1", "stage2")


@dataclass(frozen=True)
class StagePlan:
    """One stage of the recipe: what is frozen and how long to train."""

    name: str
    frozen_prefixes: tuple
    base_lr: float
    weight_decay: float
    steps: int
    warmup_steps: int

    def __post_init__(self):
        if self.name not in STAGE_NAMES:
            raise ConfigError(f"stage name must be one of {STAGE_NAMES}, "
                              f"got {self.name!r}")
        if self.steps <= 0:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if not 0 <= self.warmup_steps <= self.steps:
            raise ConfigError(
                f"warmup_steps must lie in [0, {self.steps}], "
                f"got {self.warmup_steps}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if self.weight_decay < 0:
            raise ConfigError(
                f"weight_decay must be nonnegative, got {self.weight_decay}")
        frozen = set(self.frozen_prefixes)
        if not set(ENCODER_PREFIXES) <= frozen:
            raise ConfigError("both encoder prefixes must be frozen in "
                              "every stage")
        if self.name == "stage1" and "lm." not in frozen:
            raise ConfigError("stage1 must freeze the LM")
        if self.name == "stage2" and "lm." in frozen:
            raise ConfigError("stage2 must leave the LM trainable")


def _default_warmup(steps: int) -> int:
    return int(round(0.03 * steps))


def stage1_plan(steps: int, base_lr: float = 4e-4,
                weight_decay: float = 0.01, warmup_steps=None,
                extra_frozen=()) -> StagePlan:
    """Projector training: encoders and LM stay fixed."""
    if warmup_steps is None:
        warmup_steps = _default_warmup(steps)
    return StagePlan(name="stage1",
                     frozen_prefixes=ENCODER_PREFIXES + ("lm.",)
                     + tuple(extra_frozen),
                     base_lr=base_lr, weight_decay=weight_decay,
                     steps=steps, warmup_steps=warmup_steps)


def stage2_plan(steps: int, base_lr: float = 4e-5,
                weight_decay: float = 0.01, warmup_steps=None,
                extra_frozen=()) -> StagePlan:
    """Finetuning: projectors and LM train, encoders stay fixed."""
    if warmup_steps is None:
        warmup_steps = _default_warmup(steps)
    return StagePlan(name="stage2",
                     frozen_prefixes=ENCODER_PREFIXES + tuple(extra_frozen),
                     base_lr=base_lr, weight_decay=weight_decay,
                     steps=steps, warmup_steps=warmup_steps)


def cosine_lr(step: int, base_lr: float, total_steps: int,
              warmup_steps: int) -> float:
    """Linear warmup to base_lr, then a half cosine down to zero."""
    if not 0 <= step <= total_steps:
        raise ContractError(
            f"step {step} outside [0, {total_steps}]")
    if not 0 <= warmup_steps <= total_steps:
        raise ContractError(
            f"warmup {warmup_steps} outside [0, {total_steps}]")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return 0.0 if step == total_steps and total_steps > 0 else base_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Decoupled weight decay Adam over one flat buffer.

    The parameters not frozen at construction are the trained set. Their
    values move into one contiguous float64 buffer, in the given order,
    and each Parameter.data becomes a view of its slice; the moments are
    two more buffers of the same layout, and all share one step count.
    Every trained parameter must have a gradient at every step.
    """

    def __init__(self, params, weight_decay=0.0):
        self.params = [p for p in params if not p.frozen]
        self.weight_decay = weight_decay
        # the empty tail lets a stage that trains nothing concatenate
        self.data = np.concatenate([p.data.ravel() for p in self.params]
                                   + [np.empty(0)])
        ends = np.cumsum([p.data.size for p in self.params])
        for p, view in zip(self.params, np.split(self.data, ends[:-1])):
            p.data = view.reshape(p.data.shape)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.t = 0

    def step(self, lr: float) -> None:
        """One update; raises, moving nothing, on a missing, misshapen
        or non-finite gradient."""
        for p in self.params:
            got = getattr(p.grad, "shape", None)  # None: no gradient
            if got != p.data.shape:
                raise DimensionError(f"{p.name}: grad shape {got} != "
                                     f"param shape {p.data.shape}")
        g = np.concatenate([p.grad for p in self.params] + [np.empty(0)],
                           axis=None)
        if not np.isfinite(g).all():
            bad = next(p.name for p in self.params
                       if not np.isfinite(p.grad).all())
            raise ContractError(f"non-finite gradient for {bad}")
        self.t += 1
        self.m *= BETA1
        self.m += (1.0 - BETA1) * g
        self.v *= BETA2
        self.v += (1.0 - BETA2) * g * g
        m_hat = self.m / (1.0 - BETA1 ** self.t)
        v_hat = self.v / (1.0 - BETA2 ** self.t)
        self.data -= lr * self.weight_decay * self.data
        self.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class MetricsRecord:
    step: int
    stage: str
    lr: float
    loss: float
    wall_ms: float

    def to_json_line(self) -> str:
        return json.dumps({"step": self.step, "stage": self.stage,
                           "lr": self.lr, "loss": self.loss,
                           "wall_ms": self.wall_ms})


def write_metrics(records, path) -> None:
    """Append records to a JSON-lines file, one object per line."""
    with open(path, "a") as f:
        for rec in records:
            f.write(rec.to_json_line() + "\n")


def read_metrics(path) -> list:
    out = []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            d = json.loads(line)
            out.append(MetricsRecord(**d))
    return out


def config_hash(cfg) -> str:
    """Stable hash of a (possibly nested) config dataclass."""
    blob = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


@dataclass
class Checkpoint:
    """Manifest plus one f32 little-endian blob in manifest order."""

    manifest: dict
    blob: bytes

    def save(self, out_dir) -> None:
        """Blob first, manifest last, each replaced atomically.

        Neither file is ever seen half written. A crash between the two
        leaves the new blob beside the old manifest, which load's digest
        check rejects.
        """
        os.makedirs(out_dir, exist_ok=True)
        text = json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        write_atomic(out_dir, WEIGHTS_NAME, self.blob)
        write_atomic(out_dir, MANIFEST_NAME, text.encode())

    @staticmethod
    def load(out_dir) -> "Checkpoint":
        with open(os.path.join(out_dir, MANIFEST_NAME)) as f:
            manifest = json.load(f)
        with open(os.path.join(out_dir, WEIGHTS_NAME), "rb") as f:
            blob = f.read()
        want = sum(4 * math.prod(e["shape"]) for e in manifest["params"])
        if len(blob) != want:
            raise ContractError(
                f"weights blob holds {len(blob)} bytes, manifest "
                f"promises {want}")
        digest = hashlib.sha256(blob).hexdigest()
        if digest != manifest.get("blob_sha256"):
            raise ContractError(
                f"weights blob sha256 {digest} does not match the "
                f"manifest's {manifest.get('blob_sha256')}")
        return Checkpoint(manifest, blob)


def write_atomic(out_dir, name: str, data: bytes) -> None:
    """Write out_dir/name through a temporary file and os.replace.

    Readers, and a process that dies mid-write, see the old file or
    the new one, never a truncated one; a failed write removes its
    temporary file.
    """
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=out_dir)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        os.unlink(tmp)
        raise


def snapshot(model, step: int, stage: str) -> Checkpoint:
    """Serialize model parameters, quantizing them to f32 in place.

    The in-place quantization is what makes a later resume bit-identical
    to simply continuing: both runs proceed from the f32 lattice.
    """
    entries = []
    chunks = []
    offset = 0
    for p in model.parameters():
        q = p.data.astype("<f4")
        p.data[...] = q
        raw = q.tobytes()
        entries.append({"name": p.name, "shape": list(p.data.shape),
                        "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {"config_hash": config_hash(model.cfg), "step": step,
                "stage": stage, "params": entries,
                "blob_sha256": hashlib.sha256(blob).hexdigest()}
    return Checkpoint(manifest, blob)


def restore(model, ckpt: Checkpoint, strict: bool = True) -> None:
    """Load a checkpoint's parameters into a freshly built model."""
    if strict and ckpt.manifest["config_hash"] != config_hash(model.cfg):
        raise ContractError("checkpoint was written by a different config")
    params = model.parameters()
    entries = ckpt.manifest["params"]
    got = [e["name"] for e in entries]
    want = [p.name for p in params]
    if got != want:
        raise ContractError(
            f"parameter names differ: checkpoint has {got[:3]}..., "
            f"model has {want[:3]}...")
    for e, p in zip(entries, params):
        shape = tuple(e["shape"])
        if shape != p.data.shape:
            raise DimensionError(
                f"{p.name}: checkpoint shape {shape} != {p.data.shape}")
        n = math.prod(shape)
        arr = np.frombuffer(ckpt.blob, dtype="<f4", count=n,
                            offset=e["offset"])
        p.data[...] = arr.reshape(shape)


def batch_indices(seed: int, stage_index: int, step: int, n_samples: int,
                  batch_size: int) -> np.ndarray:
    """Deterministic batch for one step, independent of history."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, stage_index, step]))
    k = min(batch_size, n_samples)
    return rng.choice(n_samples, size=k, replace=False)


def run_stage(plan: StagePlan, model, dataset, seed: int,
              batch_size: int = 8, out_dir=None, clock=None):
    """Train one stage; returns (final Checkpoint, metrics records).

    Every stage freezes both encoders, so each image's post-unshuffle
    tokens come from the model's token cache (Pipeline.frozen_tokens),
    detached: the encoders run once per distinct image per Pipeline,
    not per stage, and receive no gradient. The cache is checked once
    here against a digest of the encoder weights and emptied if they
    changed. A step's samples are then spliced into one padded batch
    (Pipeline.assemble_batch) and run through the LM in one call;
    padding on the right is safe because the causal mask already hides
    each pad from every real position. No frozen parameter accumulates
    a gradient during the call, and the stage's AdamW, built after the
    freeze, holds only the trainable ones; its ContractError on a
    non-finite gradient comes back with the stage and step added.
    When out_dir is given, metrics stream to out_dir/metrics.jsonl as
    they are produced and the final checkpoint is written there too.
    """
    if len(dataset) == 0:
        raise ContractError("dataset is empty")
    if clock is None:
        clock = time.perf_counter
    model.set_frozen(plan.frozen_prefixes)
    params = model.parameters()
    frozen = [p for p in params if p.frozen]
    opt = AdamW(params, weight_decay=plan.weight_decay)
    stage_index = STAGE_NAMES.index(plan.name) + 1

    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")

    model.sync_token_cache()
    records = []
    with tz.outside_graph(frozen):
        for step in range(plan.steps):
            t0 = clock()
            idx = batch_indices(seed, stage_index, step, len(dataset),
                                batch_size)
            samples = [dataset[int(i)] for i in idx]
            tokens = [[model.frozen_tokens(img) for img in s.images]
                      for s in samples]
            batch = model.assemble_batch(samples, tokens)
            mean_loss = model.lm.forward(batch).loss
            loss = mean_loss.item()
            if not np.isfinite(loss):
                raise ContractError(
                    f"non-finite loss {loss} at {plan.name} step {step}")
            for p in params:
                p.zero_grad()
            tz.backward(mean_loss)
            lr = cosine_lr(step, plan.base_lr, plan.steps, plan.warmup_steps)
            try:
                opt.step(lr)
            except ContractError as err:
                raise ContractError(f"{err} at {plan.name} step {step}") \
                    from err
            rec = MetricsRecord(step=step, stage=plan.name, lr=lr, loss=loss,
                                wall_ms=(clock() - t0) * 1000.0)
            records.append(rec)
            if metrics_path is not None:
                write_metrics([rec], metrics_path)

    ckpt = snapshot(model, plan.steps, plan.name)
    if out_dir is not None:
        ckpt.save(out_dir)
    return ckpt, records
