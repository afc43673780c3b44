"""Two-stage training: freeze plans, AdamW, cosine schedule, checkpoints.

Stage 1 freezes both encoders and the LM and trains the projectors.
Stage 2 keeps the encoders frozen and finetunes projectors plus LM.
Freezing is enforced by parameter-name prefix. Because the encoders
are frozen in every stage, they run forward only, on arrays, and
run_stage trains on their cached output tokens
(Pipeline.frozen_tokens): the cache lives on the Pipeline, keyed by
image and, on an image miss, by each filtered branch's encoder input,
so each encoder runs once per distinct input per Pipeline, across both
stages. Its first fill locks the encoder weights read-only, so it
holds for the Pipeline's life. run_stage fills the cache
before its first step, in one pass over the stage's schedule of
batches, so its steps read cached tokens only. A frozen parameter
takes no gradient (Parameter.frozen is the one flag every backward
checks), and each stage's AdamW holds only the parameters that stage
trains, as views into its one flat buffer, and updates them through
two preallocated scratch buffers of the same size.

Each step builds one right-padded [B, L, d] batch on arrays
(Pipeline.assemble_batch: one projector/fusion pass over all the step's
images, then one splice) and runs the LM's loss on it once
(Pipeline.loss), which returns the loss and one backward closure that
chains the hand-derived backwards of the LM, the splice and the fusion;
tensor.backward runs it, once per step. The causal mask keeps every
pad out of every real position's attention, and pads carry no loss, so
the step loss is the mean of the samples' masked losses.
LanguageModel.loss is the loss over forward's logits up to rounding,
with the last block's queries, the final norm and the head run only on
the rows the loss reads (from the earliest supervised next token on),
where forward computes every logit.

Every step draws its batch from a generator keyed by (seed, stage,
step), so a resumed run reconstructs the exact batch sequence without
replaying RNG history. Checkpoints store one little-endian f32 blob in
manifest order; saving quantizes the live parameters to the same f32
values, which makes resume-then-train bitwise equal to train-through.
A parameter already on that lattice is not written, so saving never
touches a locked encoder array.
"""

import contextlib
import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, ContractError, DimensionError, reject

ENCODER_PREFIXES = ("encoderA.", "encoderB.")
ADAPTER_PREFIXES = ("projectorA.", "projectorB.", "projector_shared.",
                    "fusion.")
STAGE_NAMES = ("stage1", "stage2")
STAGE_FROZEN = {"stage1": ENCODER_PREFIXES + ("lm.",),
                "stage2": ENCODER_PREFIXES}
STAGE_BASE_LR = {"stage1": 4e-4, "stage2": 4e-5}


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
        problems = []
        if self.name not in STAGE_NAMES:
            problems.append(f"name: must be one of {STAGE_NAMES}, "
                            f"got {self.name!r}")
        if self.steps <= 0:
            problems.append(f"steps: must be positive, got {self.steps}")
        if not 0 <= self.warmup_steps <= self.steps:
            problems.append(f"warmup_steps: must lie in [0, {self.steps}], "
                            f"got {self.warmup_steps}")
        if self.base_lr <= 0:
            problems.append(
                f"base_lr: must be positive, got {self.base_lr}")
        if self.weight_decay < 0:
            problems.append(f"weight_decay: must be nonnegative, "
                            f"got {self.weight_decay}")
        frozen = set(self.frozen_prefixes)
        if not set(ENCODER_PREFIXES) <= frozen:
            problems.append("frozen_prefixes: both encoder prefixes must "
                            "be frozen in every stage")
        if self.name == "stage1" and "lm." not in frozen:
            problems.append("frozen_prefixes: stage1 must freeze the LM")
        if self.name == "stage2" and "lm." in frozen:
            problems.append(
                "frozen_prefixes: stage2 must leave the LM trainable")
        reject(problems)


def stage_plan(name: str, steps: int, base_lr=None,
               weight_decay: float = 0.01, warmup_steps=None,
               extra_frozen=()) -> StagePlan:
    """The named stage's plan. Unset, base_lr takes the stage's default
    (STAGE_BASE_LR) and warmup_steps 3% of steps, rounded."""
    return StagePlan(
        name=name,
        frozen_prefixes=STAGE_FROZEN[name] + tuple(extra_frozen),
        base_lr=STAGE_BASE_LR[name] if base_lr is None else base_lr,
        weight_decay=weight_decay, steps=steps,
        warmup_steps=(int(round(0.03 * steps)) if warmup_steps is None
                      else warmup_steps))


@dataclass(frozen=True)
class StageConfig:
    """One stage section of a training config; stage_plan fills in the
    defaults of base_lr and warmup_steps left unset. What a stage
    freezes is the recipe's (STAGE_FROZEN), plus the adapters when
    TrainingConfig.freeze_vision_adapters is set, so that the freeze
    tag TrainingConfig.plans returns names it exactly."""

    steps: int
    base_lr: float | None = None
    weight_decay: float = 0.01
    warmup_steps: int | None = None

    def plan(self, name: str, extra_frozen=()) -> StagePlan:
        """This section as the named stage's plan, freezing extra_frozen
        on top of the stage's own prefixes."""
        return stage_plan(name, self.steps, self.base_lr, self.weight_decay,
                          self.warmup_steps, extra_frozen)


@dataclass(frozen=True)
class TrainingConfig:
    """The training section: both stages and what they share."""

    stage1: StageConfig
    stage2: StageConfig
    batch_size: int = 8
    eval_max_new: int = 4
    freeze_vision_adapters: bool = False

    def __post_init__(self):
        problems = [f"{key}: must be >= 1"
                    for key in ("batch_size", "eval_max_new")
                    if getattr(self, key) < 1]
        for name in STAGE_NAMES:
            try:
                getattr(self, name).plan(name)
            except ConfigError as err:
                problems += err.under(f"{name}.")
        reject(problems)

    def plans(self, param_names) -> tuple:
        """(stage plans, freeze tag) for a model with these parameters.

        With freeze_vision_adapters set, the projector stage is dropped
        (nothing it trains would be trainable) and the finetune stage
        runs with every adapter prefix the model has frozen, leaving
        only the LM learning.
        """
        if self.freeze_vision_adapters:
            adapters = tuple(p for p in ADAPTER_PREFIXES
                             if any(n.startswith(p) for n in param_names))
            return [self.stage2.plan("stage2", adapters)], \
                "encoders+adapters"
        return [self.stage1.plan("stage1"),
                self.stage2.plan("stage2")], "encoders"


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

    A step allocates nothing the size of the buffer: the gradients are
    copied into one preallocated flat buffer, and every update runs in
    place or through out= into it and one more scratch buffer, in the
    operand order of the plain expressions, so the result is bitwise
    theirs.
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
        self._grad = np.empty_like(self.data)
        self._scratch = np.empty_like(self.data)
        self._finite = np.empty(self.data.shape, dtype=bool)

    def step(self, lr: float) -> None:
        """One update; raises, moving nothing, on a missing, misshapen
        or non-finite gradient."""
        for p in self.params:
            got = getattr(p.grad, "shape", None)  # None: no gradient
            if got != p.data.shape:
                raise DimensionError(f"{p.name}: grad shape {got} != "
                                     f"param shape {p.data.shape}")
        g, tmp = self._grad, self._scratch
        np.concatenate([p.grad for p in self.params] + [np.empty(0)],
                       axis=None, out=g)
        if not np.isfinite(g, out=self._finite).all():
            bad = next(p.name for p in self.params
                       if not np.isfinite(p.grad).all())
            raise ContractError(f"non-finite gradient for {bad}")
        self.t += 1
        # m += (1 - BETA1) * g; v += (1 - BETA2) * g * g
        self.m *= BETA1
        self.m += np.multiply(1.0 - BETA1, g, out=tmp)
        self.v *= BETA2
        np.multiply(1.0 - BETA2, g, out=tmp)
        self.v += np.multiply(tmp, g, out=tmp)
        # data -= lr * wd * data, before the Adam term, which reads only
        # m and v
        self.data -= np.multiply(lr * self.weight_decay, self.data, out=g)
        # data -= lr * m_hat / (sqrt(v_hat) + eps)
        m_hat = np.divide(self.m, 1.0 - BETA1 ** self.t, out=g)
        v_hat = np.divide(self.v, 1.0 - BETA2 ** self.t, out=tmp)
        denom = np.add(np.sqrt(v_hat, out=tmp), ADAM_EPS, out=tmp)
        self.data -= np.divide(np.multiply(lr, m_hat, out=g), denom, out=g)


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


def write_metrics(records, f) -> None:
    """Append records to an open JSON-lines file, one object per line,
    in one write, then flush: a reader sees every record written."""
    f.write("".join(rec.to_json_line() + "\n" for rec in records))
    f.flush()


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
            try:
                manifest = json.load(f)
            except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
                raise ContractError(
                    f"checkpoint manifest is not JSON: {err}") from err
        with open(os.path.join(out_dir, WEIGHTS_NAME), "rb") as f:
            blob = f.read()
        want = _blob_size(manifest)
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


def _blob_size(manifest) -> int:
    """Bytes of blob a manifest lays out; raises ContractError unless it
    has the layout snapshot writes: an object with config_hash,
    blob_sha256 and a params list of {name, shape, offset}, each offset
    the sum of the f32 sizes before it."""
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("config_hash"), str)
            and isinstance(manifest.get("blob_sha256"), str)
            and isinstance(manifest.get("params"), list)):
        raise ContractError("checkpoint manifest must be an object with "
                            "config_hash, blob_sha256 and a params list")
    size = 0
    for i, e in enumerate(manifest["params"]):
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in e["shape"])
                and type(e.get("offset")) is int):
            raise ContractError(
                f"checkpoint manifest params[{i}] must be "
                "{name: str, shape: [int >= 0], offset: int}")
        if e["offset"] != size:
            raise ContractError(
                f"checkpoint manifest params[{i}] ({e['name']}) starts at "
                f"offset {e['offset']}, the sizes before it sum to {size}")
        size += 4 * math.prod(e["shape"])
    return size


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
    to simply continuing: both runs proceed from the f32 lattice. Only
    arrays the quantization changes are written, so the encoder arrays
    Pipeline.frozen_tokens made read-only, on the lattice since init or
    restore, are left as they are.
    """
    entries = []
    chunks = []
    offset = 0
    for p in model.parameters():
        q = p.data.astype("<f4")
        if not np.array_equal(q, p.data):
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


def restore(model, ckpt: Checkpoint) -> None:
    """Load a checkpoint's parameters into a freshly built model of the
    config that wrote it, with the same parameter names and shapes.

    Fresh means before its first frozen_tokens call: from then on the
    encoder arrays are read-only, and writing them raises ValueError."""
    if ckpt.manifest["config_hash"] != config_hash(model.cfg):
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
    tokens come from the model's caches (Pipeline.frozen_tokens), as
    arrays: the encoders run once per distinct encoder input per
    Pipeline, not per stage, and receive no gradient. The caches hold
    for the Pipeline's life: their first fill locks the encoder weights
    read-only, so no stage can find them stale. The stage's whole
    schedule of batches is drawn first, with the same keyed draws
    (batch_indices); one pass over it, in step, sample and image order,
    then fills the caches, so the encoders run before the first step,
    in the order and as many times as steps that filled them one by one
    would run them, and never on an image no step draws. The pass
    counts in step 0's wall_ms, so the records' wall_ms still add up to
    the stage's time, less its metrics writes.

    Each step splices its samples into one padded batch and runs the
    LM's loss on it in one call (Pipeline.loss), reading every image's
    tokens from the filled caches; padding on the right is safe because
    the causal mask already hides each pad from every real position.
    The step's backward closure runs through tensor.backward once and
    is dropped right after, so the activations it holds are freed
    before the next step's forward and two steps' never coexist; no
    frozen parameter accumulates a gradient, and the stage's AdamW,
    built after the freeze, holds only the trainable ones; its
    ContractError on a non-finite gradient comes back with the stage
    and step added.
    When out_dir is given, metrics stream to out_dir/metrics.jsonl, opened
    once for the stage and appended to, one flushed record per step;
    the final checkpoint is written there too.
    """
    if len(dataset) == 0:
        raise ContractError("dataset is empty")
    if clock is None:
        clock = time.perf_counter
    model.set_frozen(plan.frozen_prefixes)
    params = model.parameters()
    opt = AdamW(params, weight_decay=plan.weight_decay)
    stage_index = STAGE_NAMES.index(plan.name) + 1

    schedule = [batch_indices(seed, stage_index, step, len(dataset),
                              batch_size) for step in range(plan.steps)]
    metrics = contextlib.nullcontext()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics = open(os.path.join(out_dir, "metrics.jsonl"), "a")
    records = []
    with metrics as metrics_file:
        # the encoder pass, timed in step 0: every image the schedule
        # draws, in the order the steps would first ask for it
        t0 = clock()
        for idx in schedule:
            for i in idx:
                for img in dataset[int(i)].images:
                    model.frozen_tokens(img)
        for step, idx in enumerate(schedule):
            if step > 0:
                t0 = clock()
            samples = [dataset[int(i)] for i in idx]
            tokens = [[model.frozen_tokens(img) for img in s.images]
                      for s in samples]
            value, step_backward = model.loss(samples, tokens)
            loss = float(value)
            if not np.isfinite(loss):
                raise ContractError(
                    f"non-finite loss {loss} at {plan.name} step {step}")
            for p in params:
                p.grad = None
            tz.backward(step_backward)
            # the closure holds all of this step's activations; unbound
            # now, they are freed before the next step's forward
            del step_backward
            lr = cosine_lr(step, plan.base_lr, plan.steps, plan.warmup_steps)
            try:
                opt.step(lr)
            except ContractError as err:
                raise ContractError(f"{err} at {plan.name} step {step}") \
                    from err
            rec = MetricsRecord(step=step, stage=plan.name, lr=lr, loss=loss,
                                wall_ms=(clock() - t0) * 1000.0)
            records.append(rec)
            if metrics_file is not None:
                write_metrics([rec], metrics_file)

    ckpt = snapshot(model, plan.steps, plan.name)
    if out_dir is not None:
        ckpt.save(out_dir)
    return ckpt, records
