"""configs/schema.md against the validator.

Each key table in the schema doc must list exactly the keys validation
accepts in that section, with the same JSON type and required column.
The tables are checked against the schemas validation uses, and every
documented key is probed through tests/config_checks.py's
validate_experiment_config (or validate_matrix): a value of the wrong type must be reported with the
documented type, and removing the key must be reported as missing
exactly when the doc says it is required.
"""

import json
import os

import pytest

from tilefusion import experiment
from tilefusion.datagen import TaskSpec
from tilefusion.encoders import EncoderConfig
from tilefusion.lm import LMConfig
from tilefusion.model import PipelineConfig
from tilefusion.training import StageConfig, TrainingConfig

import config_checks

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

JSON_TYPES = {"string": str, "int": int, "float": float, "bool": bool,
              "object": dict}


def derived(cls):
    """(JSON types, required keys) validation derives from cls."""
    return experiment._SCHEMAS[cls][:2]


# schema.md heading -> (schema validation uses, section paths it covers)
TABLES = {
    "Experiment config": (derived(experiment.ExperimentConfig), [()]),
    "`task`": (derived(TaskSpec), [("task",)]),
    "`model`": (derived(PipelineConfig), [("model",)]),
    "encoder keys (`model.encoder_a`, `model.encoder_b`)": (
        derived(EncoderConfig),
        [("model", "encoder_a"), ("model", "encoder_b")]),
    "LM keys (`model.lm`)": (derived(LMConfig), [("model", "lm")]),
    "`training`": (derived(TrainingConfig), [("training",)]),
    "stage keys (`training.stage1`, `training.stage2`)": (
        derived(StageConfig),
        [("training", "stage1"), ("training", "stage2")]),
    "Matrix config": (derived(experiment.MatrixConfig), [None]),
}


def doc_tables() -> dict:
    """heading -> {key: (json type, required)} for every key table."""
    tables, heading = {}, None
    with open(os.path.join(CONFIG_DIR, "schema.md")) as f:
        for line in f:
            if line.startswith("#"):
                heading = line.lstrip("#").strip()
            elif line.startswith("| `"):
                key, kind, required = [
                    c.strip() for c in line.strip().strip("|").split("|")][:3]
                want = list if kind.startswith("[") else JSON_TYPES[kind]
                assert required == "yes" or required.startswith("no"), line
                tables.setdefault(heading, {})[key.strip("`")] = (
                    want, required == "yes")
    return tables


def load(name):
    with open(os.path.join(CONFIG_DIR, name)) as f:
        return json.load(f)


def problems_with(path, key, value=None, remove=False) -> list:
    """Validation problems after setting (or removing) one key of a
    shipped config; path None means the matrix config."""
    cfg = load("fusion-matrix.json" if path is None
               else "complementary-hybrid.json")
    section = cfg
    for part in path or ():
        section = section[part]
    if remove:
        section.pop(key, None)
    else:
        section[key] = value
    if path is None:
        return config_checks.validate_matrix(cfg)
    return config_checks.validate_experiment_config(cfg)


def test_every_table_is_checked():
    assert set(doc_tables()) == set(TABLES)


@pytest.mark.parametrize("heading", sorted(TABLES))
def test_table_lists_exactly_the_validated_keys(heading):
    doc = doc_tables()[heading]
    (types, required), _ = TABLES[heading]
    assert set(doc) == set(types)
    for key, (want, is_required) in doc.items():
        assert types[key] is want, key
        assert (key in required) == is_required, key


@pytest.mark.parametrize("heading", sorted(TABLES))
def test_validation_reports_each_documented_key(heading):
    _, paths = TABLES[heading]
    for path in paths:
        prefix = "".join(f"{p}." for p in path or ())
        for key, (want, is_required) in doc_tables()[heading].items():
            text = "; ".join(problems_with(path, key, value=None))
            assert f"{prefix}{key}: expected {want.__name__}" in text
            text = "; ".join(problems_with(path, key, remove=True))
            assert (f"missing key {prefix}{key}" in text) == is_required
