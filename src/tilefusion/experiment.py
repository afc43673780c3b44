"""Experiment runner: config files in, trained models and reports out.

An experiment config is one JSON file describing the task, the model,
and the two training stages. A matrix config lists experiment configs
by path and runs them as cells of an ablation, collecting one report
row per cell. Reports are written as CSV with a fixed column order
plus a JSON mirror carrying the same rows.

The task, model, model.encoder_a/encoder_b and model.lm sections are
defined once, by the dataclasses they build (TaskSpec, PipelineConfig,
EncoderConfig, LMConfig): their keys, JSON types and required keys are
read off the dataclass fields, with the type hints resolved at import.
A tuple field is a JSON list, a nested config a JSON object, and a
field without a default is required. The top-level, training, stage
and matrix sections have no dataclass behind them and keep hand-written
schemas.

Every config key is documented in configs/schema.md. Validation
collects all problems at once and raises a single ConfigError naming
the offending keys, so a bad file fails before any compute starts.
"""

import json
import os
import time
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

from .datagen import (
    TASK_KINDS,
    TaskSpec,
    check_frequency_separation,
    generate,
)
from .encoders import IN_CHANNELS, EncoderConfig
from .errors import ConfigError
from .fusion import FUSION_KINDS
from .lm import LMConfig
from .model import ENCODER_CHOICES, Pipeline, PipelineConfig
from .training import Checkpoint, restore, run_stage, stage1_plan, \
    stage2_plan, write_atomic

ADAPTER_PREFIXES = ("projectorA.", "projectorB.", "projector_shared.",
                    "fusion.")
KNOWN_PREFIXES = ("encoderA.", "encoderB.", "lm.") + ADAPTER_PREFIXES

CSV_COLUMNS = ("config_id", "encoders", "fusion", "tiling", "frozen",
               "accuracy", "tokens_per_tile", "tokens_per_image",
               "steps", "wall_ms", "status")

_ID_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


@dataclass
class ExperimentResult:
    """One completed run, in report-row form."""

    config_id: str
    encoders: str
    fusion: str
    tiling: bool
    frozen: str
    accuracy: float
    tokens_per_tile: int
    tokens_per_image: int
    steps: int
    wall_ms: float


@dataclass
class CellResult:
    config_id: str
    status: str
    error: str | None
    result: ExperimentResult | None


@dataclass
class AblationReport:
    name: str
    seed: int | None
    complete: bool
    rows: list


def _is_type(value, want):
    if want is bool:
        return isinstance(value, bool)
    if want is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if want is float:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    return isinstance(value, want)


def _check_section(problems, obj, schema, required, prefix):
    if not isinstance(obj, dict):
        problems.append(f"{prefix.rstrip('.')}: expected an object")
        return False
    for key in sorted(obj):
        if key not in schema:
            problems.append(f"unknown key {prefix}{key}")
    for key in required:
        if key not in obj:
            problems.append(f"missing key {prefix}{key}")
    for key, want in schema.items():
        if key in obj and not _is_type(obj[key], want):
            problems.append(
                f"{prefix}{key}: expected {want.__name__}")
    return True


def _json_schema(cls) -> tuple:
    """(JSON types, required keys, nested configs, tuple fields) of a
    config dataclass, read off its fields."""
    hints = typing.get_type_hints(cls)
    nested = {k: h for k, h in hints.items() if is_dataclass(h)}
    tuples = tuple(k for k, h in hints.items() if h is tuple)
    types = {k: dict if k in nested else list if k in tuples else h
             for k, h in hints.items()}
    required = tuple(f.name for f in fields(cls) if f.default is MISSING
                     and f.default_factory is MISSING)
    return types, required, nested, tuples


# Resolved once: encoders.py and lm.py postpone their annotations, and
# resolving them on every build would cost far more than the build.
_SCHEMAS = {cls: _json_schema(cls)
            for cls in (TaskSpec, EncoderConfig, LMConfig, PipelineConfig)}


def _check_config(problems, obj, cls, prefix):
    """Check a section, and its nested sections, against its dataclass."""
    types, required, nested, _ = _SCHEMAS[cls]
    if not _check_section(problems, obj, types, required, prefix):
        return False
    for key, sub in nested.items():
        if isinstance(obj.get(key), dict):
            _check_config(problems, obj[key], sub, f"{prefix}{key}.")
    return True


def _from_json(cls, section):
    """Build a config dataclass from its validated JSON section."""
    _, _, nested, tuples = _SCHEMAS[cls]
    kw = dict(section)
    for key in tuples:
        if key in kw:
            kw[key] = tuple(kw[key])
    for key, sub in nested.items():
        if key in kw:
            kw[key] = _from_json(sub, kw[key])
    return cls(**kw)


_TOP_SCHEMA = {"config_id": str, "seed": int, "task": dict,
               "model": dict, "training": dict}
_TOP_REQUIRED = ("config_id", "task", "model", "training")

_STAGE_SCHEMA = {"steps": int, "base_lr": float, "weight_decay": float,
                 "warmup_steps": int, "extra_frozen": list}
_STAGE_REQUIRED = ("steps",)

_TRAIN_SCHEMA = {"batch_size": int, "eval_max_new": int,
                 "freeze_vision_adapters": bool, "stage1": dict,
                 "stage2": dict}
_TRAIN_REQUIRED = ("stage1", "stage2")


def validate_task_block(task, problems=None, prefix="task."):
    """Schema-check a task section; returns the problem list."""
    if problems is None:
        problems = []
    if not _check_config(problems, task, TaskSpec, prefix):
        return problems
    kind = task.get("kind")
    if isinstance(kind, str) and kind not in TASK_KINDS:
        problems.append(f"{prefix}kind: must be one of {TASK_KINDS}")
    size = task.get("image_size")
    if isinstance(size, list):
        ok = (len(size) == 2
              and all(_is_type(v, int) and v > 0 for v in size))
        if not ok:
            problems.append(
                f"{prefix}image_size: expected [width, height] "
                "positive integers")
    return problems


def _validate_stage(stage, problems, prefix):
    if not _check_section(problems, stage, _STAGE_SCHEMA,
                          _STAGE_REQUIRED, prefix):
        return
    extra = stage.get("extra_frozen")
    if isinstance(extra, list):
        for item in extra:
            if item not in KNOWN_PREFIXES:
                problems.append(
                    f"{prefix}extra_frozen: unknown prefix {item!r}, "
                    f"expected one of {KNOWN_PREFIXES}")


def _check_channel_stats(enc, problems, prefix):
    """norm_mean and norm_std hold one number per input channel, and
    no std is zero: normalize would otherwise fail at the first encode."""
    for key in ("norm_mean", "norm_std"):
        stats = enc.get(key)
        if not isinstance(stats, list):
            continue  # absent, or already reported as not a list
        ok = (len(stats) == IN_CHANNELS
              and all(_is_type(v, float) for v in stats))
        if ok and key == "norm_std" and 0 in stats:
            problems.append(f"{prefix}{key}: every std must be nonzero")
        elif not ok:
            problems.append(f"{prefix}{key}: expected {IN_CHANNELS} "
                            "numbers, one per input channel")


def validate_experiment_config(cfg) -> list:
    """Collect every schema problem in one pass."""
    problems = []
    if not _check_section(problems, cfg, _TOP_SCHEMA, _TOP_REQUIRED, ""):
        return problems
    cid = cfg.get("config_id")
    if isinstance(cid, str) and (not cid or set(cid) - _ID_CHARS):
        problems.append(
            "config_id: use letters, digits, '_' or '-' only")
    if isinstance(cfg.get("task"), dict):
        validate_task_block(cfg["task"], problems)
    model = cfg.get("model")
    if isinstance(model, dict):
        if _check_config(problems, model, PipelineConfig, "model."):
            enc = model.get("encoders")
            if isinstance(enc, str) and enc not in ENCODER_CHOICES:
                problems.append(
                    f"model.encoders: must be one of {ENCODER_CHOICES}")
            fusion = model.get("fusion")
            if isinstance(fusion, str) and fusion not in FUSION_KINDS:
                problems.append(
                    f"model.fusion: must be one of {FUSION_KINDS}")
            for branch in ("encoder_a", "encoder_b"):
                if isinstance(model.get(branch), dict):
                    _check_channel_stats(model[branch], problems,
                                         f"model.{branch}.")
    training = cfg.get("training")
    if isinstance(training, dict):
        if _check_section(problems, training, _TRAIN_SCHEMA,
                          _TRAIN_REQUIRED, "training."):
            for key in ("batch_size", "eval_max_new"):
                value = training.get(key)
                if _is_type(value, int) and value < 1:
                    problems.append(f"training.{key}: must be >= 1")
            for name in ("stage1", "stage2"):
                if isinstance(training.get(name), dict):
                    _validate_stage(training[name], problems,
                                    f"training.{name}.")
    if isinstance(cfg.get("task"), dict):
        n_eval = cfg["task"].get("n_eval")
        if _is_type(n_eval, int) and n_eval < 1:
            problems.append("task.n_eval: experiments need at least "
                            "one eval sample")
    return problems


def load_config(path) -> dict:
    """Read and validate one experiment config file."""
    with open(path) as f:
        cfg = json.load(f)
    problems = validate_experiment_config(cfg)
    if problems:
        raise ConfigError(
            f"invalid config {path}: " + "; ".join(problems))
    return cfg


def build_task_spec(task, seed_override=None) -> TaskSpec:
    if seed_override is not None:
        task = dict(task, seed=seed_override)
    return _from_json(TaskSpec, task)


def build_encoder_config(enc) -> EncoderConfig:
    return _from_json(EncoderConfig, enc)


def build_pipeline_config(model) -> PipelineConfig:
    return _from_json(PipelineConfig, model)


def build_stage_plans(training, param_names):
    """Expand the training section into stage plans plus a freeze tag.

    With freeze_vision_adapters set, the projector stage is dropped
    (nothing it trains would be trainable) and the finetune stage runs
    with every adapter prefix frozen, leaving only the LM learning.
    """
    adapters = tuple(p for p in ADAPTER_PREFIXES
                     if any(n.startswith(p) for n in param_names))
    if training.get("freeze_vision_adapters", False):
        stage = training["stage2"]
        extra = tuple(stage.get("extra_frozen", ())) + adapters
        return ([stage2_plan(**dict(stage, extra_frozen=extra))],
                "encoders+adapters")
    plans = [stage1_plan(**training["stage1"]),
             stage2_plan(**training["stage2"])]
    return plans, "encoders"


def planned_patches(cfg: PipelineConfig, image_size) -> int:
    """Patch count the tiler will produce for this image size."""
    from .tiling import select_grid

    max_tiles, thumbnail = cfg.tiler_args()
    n = select_grid(image_size[0], image_size[1], max_tiles).n_tiles
    return n + 1 if thumbnail and n > 1 else n


def evaluate(model: Pipeline, samples, max_new: int = 4) -> float:
    """Exact-match accuracy of greedy-decoded answers."""
    if not samples:
        raise ConfigError("eval split is empty")
    hits = 0
    for s in samples:
        if model.answer(s.images, s.question, max_new=max_new) == s.answer:
            hits += 1
    return hits / len(samples)


def run_experiment(cfg: dict, out_dir=None, clock=None,
                   seed_override=None) -> ExperimentResult:
    """Build, train both stages, evaluate; returns the report row.

    The model and all config objects are constructed before any data
    generation or training, so an unknown fusion kind or impossible
    geometry fails before compute. Complementary-task runs also check
    that the two encoder front ends actually separate the coarse and
    fine factors. A rerun into the same out_dir replaces its metrics,
    checkpoint and result.
    """
    problems = validate_experiment_config(cfg)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    seed = cfg.get("seed", 0) if seed_override is None else seed_override
    tick = time.perf_counter if clock is None else clock
    t0 = tick()

    spec = build_task_spec(cfg["task"])
    pipe_cfg = build_pipeline_config(cfg["model"])
    if spec.kind == "complementary":
        check_frequency_separation(pipe_cfg.encoder_a,
                                   pipe_cfg.encoder_b)
    model = Pipeline(pipe_cfg, seed=seed)
    names = [p.name for p in model.parameters()]
    plans, frozen = build_stage_plans(cfg["training"], names)

    data = generate(spec)
    training = cfg["training"]
    batch_size = training.get("batch_size", 8)
    if out_dir is not None:
        # run_stage appends, so a rerun into the same directory would
        # otherwise keep the previous run's records
        stale = os.path.join(out_dir, "metrics.jsonl")
        if os.path.exists(stale):
            os.remove(stale)
    total_steps = 0
    for plan in plans:
        run_stage(plan, model, data.train, seed=seed,
                  batch_size=batch_size, out_dir=out_dir, clock=clock)
        total_steps += plan.steps

    accuracy = evaluate(model, data.eval,
                        max_new=training.get("eval_max_new", 4))
    wall_ms = (tick() - t0) * 1000.0
    result = ExperimentResult(
        config_id=cfg["config_id"],
        encoders=pipe_cfg.encoders,
        fusion=pipe_cfg.fusion,
        tiling=pipe_cfg.tiling,
        frozen=frozen,
        accuracy=accuracy,
        tokens_per_tile=pipe_cfg.tokens_per_tile(),
        tokens_per_image=pipe_cfg.tokens_per_tile()
        * planned_patches(pipe_cfg, spec.image_size),
        steps=total_steps,
        wall_ms=wall_ms,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        text = json.dumps(asdict(result), indent=2) + "\n"
        write_atomic(out_dir, "result.json", text.encode())
    return result


def evaluate_run(cfg: dict, run_dir, seed_override=None) -> float:
    """Rebuild the model, load the run's checkpoint, re-evaluate."""
    problems = validate_experiment_config(cfg)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    seed = cfg.get("seed", 0) if seed_override is None else seed_override
    spec = build_task_spec(cfg["task"])
    pipe_cfg = build_pipeline_config(cfg["model"])
    model = Pipeline(pipe_cfg, seed=seed)
    restore(model, Checkpoint.load(run_dir))
    data = generate(spec)
    max_new = cfg["training"].get("eval_max_new", 4)
    return evaluate(model, data.eval, max_new=max_new)


_MATRIX_SCHEMA = {"name": str, "seed": int, "cells": list}
_MATRIX_REQUIRED = ("name", "cells")


def validate_matrix(matrix) -> list:
    problems = []
    if not _check_section(problems, matrix, _MATRIX_SCHEMA,
                          _MATRIX_REQUIRED, ""):
        return problems
    cells = matrix.get("cells")
    if isinstance(cells, list):
        if not cells:
            problems.append("cells: must list at least one config path")
        for i, cell in enumerate(cells):
            if not isinstance(cell, str):
                problems.append(f"cells[{i}]: expected a path string")
    return problems


def ablate(matrix: dict, matrix_dir, out_dir=None, clock=None,
           seed_override=None,
           formats=("csv", "json")) -> AblationReport:
    """Run every cell of a matrix; never stops at a failed cell.

    Cell paths are resolved relative to the matrix file's directory.
    A matrix-level seed (or an explicit override) is shared by every
    cell so rows differ only in what the cell config changes. Each
    failure is recorded on its row and flips the report to partial.
    """
    problems = validate_matrix(matrix)
    if problems:
        raise ConfigError("invalid matrix: " + "; ".join(problems))
    seed = matrix.get("seed") if seed_override is None else seed_override
    rows = []
    seen = set()
    for rel in matrix["cells"]:
        cid = os.path.splitext(os.path.basename(rel))[0]
        try:
            cfg = load_config(os.path.join(matrix_dir, rel))
            cid = cfg["config_id"]
            if cid in seen:
                raise ConfigError(f"duplicate config_id {cid!r}")
            seen.add(cid)
            cell_out = None
            if out_dir is not None:
                cell_out = os.path.join(out_dir, cid)
            result = run_experiment(cfg, out_dir=cell_out, clock=clock,
                                    seed_override=seed)
            rows.append(CellResult(cid, "ok", None, result))
        except Exception as err:
            rows.append(CellResult(cid, "failed",
                                   f"{type(err).__name__}: {err}", None))
    report = AblationReport(name=matrix["name"], seed=seed,
                            complete=all(r.status == "ok" for r in rows),
                            rows=rows)
    if out_dir is not None:
        write_report(report, out_dir, formats)
    return report


def _csv_cells(cell: CellResult) -> list:
    r = cell.result
    if r is None:
        return [cell.config_id] + [""] * 9 + [cell.status]
    return [r.config_id, r.encoders, r.fusion,
            "on" if r.tiling else "off", r.frozen,
            f"{r.accuracy:.6f}", str(r.tokens_per_tile),
            str(r.tokens_per_image), str(r.steps),
            f"{r.wall_ms:.3f}", cell.status]


def report_to_csv(report: AblationReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for cell in report.rows:
        lines.append(",".join(_csv_cells(cell)))
    return "\n".join(lines) + "\n"


def report_to_json(report: AblationReport) -> str:
    rows = []
    for cell in report.rows:
        row = {"config_id": cell.config_id, "status": cell.status,
               "error": cell.error}
        if cell.result is not None:
            body = asdict(cell.result)
            body["wall_ms"] = round(body["wall_ms"], 3)
            row.update(body)
        rows.append(row)
    payload = {"name": report.name, "seed": report.seed,
               "complete": report.complete, "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


def write_report(report: AblationReport, out_dir,
                 formats=("csv", "json")) -> list:
    """Write report files; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for fmt, render in (("csv", report_to_csv), ("json", report_to_json)):
        if fmt in formats:
            write_atomic(out_dir, f"report.{fmt}", render(report).encode())
            paths.append(os.path.join(out_dir, f"report.{fmt}"))
    return paths
