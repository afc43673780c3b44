"""Experiment runner: config files in, trained models and reports out.

An experiment config is one JSON file describing the task, the model,
and the two training stages. A matrix config lists experiment configs
by path and runs them as cells of an ablation, collecting one report
row per cell. Reports are written as CSV with a fixed column order
plus a JSON mirror carrying the same rows.

Every config section is defined once, by the dataclass it builds
(ExperimentConfig, TaskSpec, PipelineConfig, EncoderConfig, LMConfig,
TrainingConfig, StageConfig, MatrixConfig): its keys, JSON types and
required keys are read off the dataclass fields, with the type hints
resolved at import. A tuple field is a JSON list, a nested config a
JSON object, an `X | None` field an optional X, and a field without a
default is required. The section's value rules live in its
dataclass's __post_init__, which reports all of them at once.

Validating a config is building it. Each section is type-checked
against its dataclass, then its nested sections are built, then the
section itself; every problem on the way is collected under its key
path. A section whose type check or nested section failed is not
built, so one mistake does not cascade into follow-on reports.
load_config, the build_* functions, run_experiment, evaluate_run and
ablate raise the problem list as one ConfigError, before any compute
starts. Every config key is documented in configs/schema.md.
"""

import contextlib
import json
import os
import time
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from types import UnionType

from .assembly import ByteTokenizer, build_prompt
from .datagen import (COMPLEMENTARY_QUESTION, TaskSpec,
                      check_frequency_separation, generate,
                      tile_detail_question)
from .encoders import EncoderConfig
from .errors import ConfigError, ContractError, reject
from .lm import LMConfig
from .model import Pipeline, PipelineConfig
from .tiling import patch_count, select_grid
from .training import MANIFEST_NAME, WEIGHTS_NAME, Checkpoint, \
    StageConfig, TrainingConfig, restore, run_stage, write_atomic

CSV_COLUMNS = ("config_id", "encoders", "fusion", "tiling", "frozen",
               "accuracy", "tokens_per_tile", "tokens_per_image",
               "steps", "wall_ms", "eval_ms", "status")

# what a run writes into its out_dir, all removed before a rerun trains
_RUN_FILES = ("metrics.jsonl", "result.json", MANIFEST_NAME, WEIGHTS_NAME)

_ID_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the task, the model and the training recipe."""

    config_id: str
    task: TaskSpec
    model: PipelineConfig
    training: TrainingConfig
    seed: int = 0

    def __post_init__(self):
        problems = []
        # the complementary task's single-branch bounds hold only when
        # the two branches see its two frequency bands
        if self.task.kind == "complementary":
            try:
                check_frequency_separation(self.model.encoder_a,
                                           self.model.encoder_b)
            except ConfigError as err:
                problems += err.under("model.")
        # assembly and greedy decoding refuse a sequence over the context
        # limit mid-run, so the longest one is checked here. Every sample
        # holds one image and a one-byte answer. prefix counts [BOS] and
        # the prompt, its marker replaced by the image's visual tokens;
        # training adds the answer and [EOS], a decode eval_max_new - 1
        # positions (its last token is never fed back)
        task, limit = self.task, self.model.lm.context_limit
        w, h = task.image_size
        question = (COMPLEMENTARY_QUESTION if task.kind == "complementary"
                    else tile_detail_question(h // task.tile_size - 1,
                                              w // task.tile_size - 1))
        prefix = (len(ByteTokenizer().encode(build_prompt(1, question)))
                  + self.model.tokens_per_tile()
                  * planned_patches(self.model, task.image_size))
        needed, what = max(
            (prefix + 2, "training"),
            (prefix + max(self.training.eval_max_new - 1, 0), "decoding"))
        if needed > limit:
            problems.append(f"model.lm.context_limit: {what} needs "
                            f"{needed} positions, the limit is {limit}")
        reject(problems)


@dataclass(frozen=True)
class MatrixConfig:
    """An ablation: a report name and one experiment config per cell."""

    name: str
    cells: tuple
    seed: int | None = None

    def __post_init__(self):
        problems = [f"cells[{i}]: expected a path string"
                    for i, cell in enumerate(self.cells)
                    if not isinstance(cell, str)]
        if not self.cells:
            problems.append("cells: must list at least one config path")
        reject(problems)


@dataclass
class ExperimentResult:
    """One completed run, in report-row form. tiling is max_tiles > 1;
    wall_ms times the whole run and eval_ms its evaluate call, both on
    the run's clock."""

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
    eval_ms: float


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


def _json_type(hint):
    """The JSON type of a field hint: X for `X | None`, else the hint."""
    if isinstance(hint, UnionType):
        (hint,) = [h for h in typing.get_args(hint) if h is not type(None)]
    return hint


def _json_schema(cls) -> tuple:
    """(JSON types, required keys, nested configs, tuple fields) of a
    config dataclass, read off its fields."""
    hints = {k: _json_type(h)
             for k, h in typing.get_type_hints(cls).items()}
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
            for cls in (ExperimentConfig, TaskSpec, PipelineConfig,
                        EncoderConfig, LMConfig, TrainingConfig,
                        StageConfig, MatrixConfig)}


def _check_experiment(cfg, problems, prefix):
    """An experiment's id is a plain name, and it trains on at least one
    sample and scores at least one (a task on its own may have none)."""
    cid = cfg.get("config_id")
    if isinstance(cid, str) and (not cid or set(cid) - _ID_CHARS):
        problems.append(
            f"{prefix}config_id: use letters, digits, '_' or '-' only")
    task = cfg.get("task") if isinstance(cfg.get("task"), dict) else {}
    for key, split in (("n_train", "train"), ("n_eval", "eval")):
        n = task.get(key)
        if _is_type(n, int) and n < 1:
            problems.append(f"{prefix}task.{key}: experiments need at "
                            f"least one {split} sample")


# Rules checked on a section's JSON whether or not it builds: they are
# reported beside every other problem, and a section that breaks one
# is still built.
_JSON_RULES = {ExperimentConfig: _check_experiment}


def _build(problems, obj, cls, prefix):
    """cls built from its JSON section obj, or None if it cannot be;
    appends every problem found to problems, keyed under prefix."""
    if not isinstance(obj, dict):
        problems.append(f"{prefix.rstrip('.') or 'config'}: "
                        "expected an object")
        return None
    types, required, nested, tuples = _SCHEMAS[cls]
    found = len(problems)
    problems += [f"unknown key {prefix}{key}" for key in sorted(obj)
                 if key not in types]
    problems += [f"missing key {prefix}{key}" for key in required
                 if key not in obj]
    problems += [f"{prefix}{key}: expected {want.__name__}"
                 for key, want in types.items()
                 if key in obj and not _is_type(obj[key], want)]
    failed = len(problems) > found
    kw = dict(obj)
    for key, sub in nested.items():
        if isinstance(obj.get(key), dict):
            kw[key] = _build(problems, obj[key], sub, f"{prefix}{key}.")
            failed = failed or kw[key] is None
    if cls in _JSON_RULES:
        _JSON_RULES[cls](obj, problems, prefix)
    if failed:
        return None
    for key in tuples:
        if key in kw:
            kw[key] = tuple(kw[key])
    try:
        return cls(**kw)
    except ConfigError as err:
        problems += err.under(prefix)
        return None


def _construct(obj, cls, prefix="", what="config"):
    """cls built from obj; raises every problem as one ConfigError."""
    problems = []
    built = _build(problems, obj, cls, prefix)
    if problems:
        raise ConfigError(f"invalid {what}: " + "; ".join(problems))
    return built


def load_config(path) -> dict:
    """Read and validate one experiment config file; returns its JSON."""
    with open(path) as f:
        cfg = json.load(f)
    _construct(cfg, ExperimentConfig, what=f"config {path}")
    return cfg


def build_experiment(cfg) -> ExperimentConfig:
    """Every section of an experiment config, built."""
    return _construct(cfg, ExperimentConfig)


def build_task_spec(task) -> TaskSpec:
    return _construct(task, TaskSpec, "task.")


def build_pipeline_config(model) -> PipelineConfig:
    return _construct(model, PipelineConfig, "model.")


def build_stage_plans(training, param_names):
    """The training section's stage plans for a model with these
    parameters, plus its freeze tag (TrainingConfig.plans)."""
    return _construct(training, TrainingConfig, "training.").plans(
        param_names)


def planned_patches(cfg: PipelineConfig, image_size) -> int:
    """Patch count the tiler will produce for this image size."""
    return patch_count(select_grid(image_size[0], image_size[1],
                                   cfg.max_tiles), cfg.thumbnail)


def evaluate(model: Pipeline, samples, max_new: int) -> float:
    """Exact-match accuracy of greedy-decoded answers."""
    if not samples:
        raise ConfigError("eval split is empty")
    hits = 0
    for s in samples:
        if model.answer(s.images, s.question, max_new=max_new) == s.answer:
            hits += 1
    return hits / len(samples)


def run_experiment(cfg: dict, out_dir=None, clock=None) -> ExperimentResult:
    """Build, train both stages, evaluate; returns the report row.

    cfg carries the run's seeds: `seed` sets the init and the batch
    order, `task.seed` the data. Every config object and the model are
    built before any data generation or training, so an unknown fusion
    kind, an impossible geometry or (on the complementary task) encoder
    front ends that do not separate the coarse and fine factors fail
    before compute. A run owns its out_dir: once the model and data are
    built, and before stage 1, it removes the previous run's metrics,
    checkpoint and result, so a run that fails leaves only what it
    wrote itself.
    """
    exp = build_experiment(cfg)
    tick = time.perf_counter if clock is None else clock
    t0 = tick()

    model = Pipeline(exp.model, seed=exp.seed)
    plans, frozen = exp.training.plans(
        [p.name for p in model.parameters()])

    data = generate(exp.task)
    if out_dir is not None:
        for name in _RUN_FILES:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
    for plan in plans:
        run_stage(plan, model, data.train, seed=exp.seed,
                  batch_size=exp.training.batch_size, out_dir=out_dir,
                  clock=clock)
    t_eval = tick()
    accuracy = evaluate(model, data.eval, max_new=exp.training.eval_max_new)
    t_end = tick()
    result = ExperimentResult(
        config_id=exp.config_id,
        encoders=exp.model.encoders,
        fusion=exp.model.fusion,
        tiling=exp.model.max_tiles > 1,
        frozen=frozen,
        accuracy=accuracy,
        tokens_per_tile=exp.model.tokens_per_tile(),
        tokens_per_image=exp.model.tokens_per_tile()
        * planned_patches(exp.model, exp.task.image_size),
        steps=sum(plan.steps for plan in plans),
        wall_ms=(t_end - t0) * 1000.0,
        eval_ms=(t_end - t_eval) * 1000.0,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        text = json.dumps(asdict(result), indent=2) + "\n"
        write_atomic(out_dir, "result.json", text.encode())
    return result


def evaluate_run(cfg: dict, run_dir) -> float:
    """Rebuild the model, load the run's checkpoint, re-evaluate.

    Only a finished run is scored: before anything is restored, the
    checkpoint's stage and step must be where the config's last stage
    plan ends, or ContractError names both. A run whose later stage
    failed leaves its earlier stage's checkpoint behind, and that is
    refused.
    """
    exp = build_experiment(cfg)
    model = Pipeline(exp.model, seed=exp.seed)
    plans, _ = exp.training.plans([p.name for p in model.parameters()])
    ckpt = Checkpoint.load(run_dir)
    got = (ckpt.manifest.get("stage"), ckpt.manifest.get("step"))
    want = (plans[-1].name, plans[-1].steps)
    if got != want:
        raise ContractError(
            f"checkpoint holds {got[0]} step {got[1]}, but the config's "
            f"run ends at {want[0]} step {want[1]}: eval scores only a "
            "finished run")
    restore(model, ckpt)
    data = generate(exp.task)
    return evaluate(model, data.eval, max_new=exp.training.eval_max_new)


def ablate(matrix: dict, matrix_dir, out_dir=None,
           clock=None) -> AblationReport:
    """Run every cell of a matrix; never stops at a failed cell.

    Cell paths are resolved relative to the matrix file's directory.
    A matrix-level seed, when set, replaces every cell's own seed, so
    rows differ only in what the cell config changes. Each failure is
    recorded on its row and flips the report to partial. With out_dir,
    the report is written there in both formats (write_report).
    """
    spec = _construct(matrix, MatrixConfig, what="matrix")
    rows = []
    seen = set()
    for rel in spec.cells:
        cid = os.path.splitext(os.path.basename(rel))[0]
        try:
            cfg = load_config(os.path.join(matrix_dir, rel))
            cid = cfg["config_id"]
            if cid in seen:
                raise ConfigError(f"duplicate config_id {cid!r}")
            seen.add(cid)
            if spec.seed is not None:
                cfg["seed"] = spec.seed
            cell_out = None
            if out_dir is not None:
                cell_out = os.path.join(out_dir, cid)
            result = run_experiment(cfg, out_dir=cell_out, clock=clock)
            rows.append(CellResult(cid, "ok", None, result))
        except Exception as err:
            rows.append(CellResult(cid, "failed",
                                   f"{type(err).__name__}: {err}", None))
    report = AblationReport(name=spec.name, seed=spec.seed,
                            complete=all(r.status == "ok" for r in rows),
                            rows=rows)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def _csv_cells(cell: CellResult) -> list:
    r = cell.result
    if r is None:
        blanks = [""] * (len(CSV_COLUMNS) - 2)
        return [cell.config_id] + blanks + [cell.status]
    return [r.config_id, r.encoders, r.fusion,
            "on" if r.tiling else "off", r.frozen,
            f"{r.accuracy:.6f}", str(r.tokens_per_tile),
            str(r.tokens_per_image), str(r.steps),
            f"{r.wall_ms:.3f}", f"{r.eval_ms:.3f}", cell.status]


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
            for key in ("wall_ms", "eval_ms"):
                body[key] = round(body[key], 3)
            row.update(body)
        rows.append(row)
    payload = {"name": report.name, "seed": report.seed,
               "complete": report.complete, "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


def write_report(report: AblationReport, out_dir) -> list:
    """Write report.csv and report.json, each atomically; returns the
    paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for fmt, render in (("csv", report_to_csv), ("json", report_to_json)):
        write_atomic(out_dir, f"report.{fmt}", render(report).encode())
        paths.append(os.path.join(out_dir, f"report.{fmt}"))
    return paths
