"""Harness tests: config validation, tiny end-to-end runs, reports.

Training runs here use single-digit step counts; they check wiring
and invariants, not accuracy. The report determinism tests inject a
fake clock so wall-time fields are reproducible byte for byte.
"""

import copy
import json
import os
from dataclasses import asdict

import pytest

from tilefusion import experiment
from tilefusion.errors import ConfigError, ContractError
from tilefusion.experiment import (
    CSV_COLUMNS,
    ablate,
    build_pipeline_config,
    build_stage_plans,
    build_task_spec,
    evaluate_run,
    load_config,
    run_experiment,
    report_to_csv,
    report_to_json,
    write_report,
)
from tilefusion.training import read_metrics

from config_checks import (tiny_cfg, validate_experiment_config,
                           validate_matrix)


def fake_clock():
    state = {"t": 0.0}

    def tick():
        state["t"] += 0.001
        return state["t"]

    return tick


def failing_replace(target):
    """os.replace that fails, like a full disk, when it would land on
    target; every other replace goes through."""
    real = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == target:
            raise OSError(f"no space left writing {target}")
        real(src, dst)

    return replace


class TestValidation:
    def test_good_config_has_no_problems(self):
        assert validate_experiment_config(tiny_cfg()) == []

    def test_missing_sections_listed(self):
        problems = validate_experiment_config({"config_id": "x"})
        text = "; ".join(problems)
        assert "missing key task" in text
        assert "missing key model" in text
        assert "missing key training" in text

    def test_non_object_config_named(self):
        assert validate_experiment_config([]) == [
            "config: expected an object"]
        assert validate_matrix("cells") == ["config: expected an object"]

    def test_unknown_keys_listed_with_path(self):
        cfg = tiny_cfg()
        cfg["mystery"] = 1
        cfg["model"]["encoder_a"]["rank"] = 4
        cfg["training"]["stage1"]["momentum"] = 0.9
        text = "; ".join(validate_experiment_config(cfg))
        assert "unknown key mystery" in text
        assert "unknown key model.encoder_a.rank" in text
        assert "unknown key training.stage1.momentum" in text

    def test_type_problems_listed(self):
        cfg = tiny_cfg()
        cfg["task"]["n_train"] = "many"
        cfg["model"]["thumbnail"] = 1
        text = "; ".join(validate_experiment_config(cfg))
        assert "task.n_train: expected int" in text
        assert "model.thumbnail: expected bool" in text

    def test_tiling_flag_is_unknown(self):
        # max_tiles 1 is the untiled baseline; there is no second switch
        cfg = tiny_cfg()
        cfg["model"]["tiling"] = False
        assert validate_experiment_config(cfg) == [
            "unknown key model.tiling"]

    def test_bad_choice_values_listed(self):
        cfg = tiny_cfg()
        cfg["task"]["kind"] = "riddles"
        cfg["model"]["encoders"] = "C"
        cfg["model"]["fusion"] = "mean-pool"
        text = "; ".join(validate_experiment_config(cfg))
        assert "task.kind" in text
        assert "model.encoders" in text
        assert "model.fusion" in text

    def test_eval_split_required(self):
        cfg = tiny_cfg()
        cfg["task"]["n_eval"] = 0
        text = "; ".join(validate_experiment_config(cfg))
        assert "task.n_eval" in text

    def test_train_split_required(self, tmp_path):
        # an empty train split used to pass validation, build the model
        # and then fail in run_stage with "dataset is empty"
        cfg = tiny_cfg()
        cfg["task"]["n_train"] = 0
        assert validate_experiment_config(cfg) == [
            "task.n_train: experiments need at least one train sample"]
        with pytest.raises(ConfigError, match="task.n_train"):
            run_experiment(cfg, out_dir=str(tmp_path))
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 0), ("batch_size", -3),
        ("eval_max_new", 0), ("eval_max_new", -1),
    ])
    def test_training_counts_must_be_positive(self, key, value):
        cfg = tiny_cfg()
        cfg["training"][key] = value
        assert validate_experiment_config(cfg) == [
            f"training.{key}: must be >= 1"]
        cfg["training"][key] = 1
        assert validate_experiment_config(cfg) == []

    def test_training_count_problems_share_one_report(self):
        cfg = tiny_cfg()
        cfg["training"]["batch_size"] = 0
        cfg["training"]["eval_max_new"] = -1
        cfg["task"]["n_eval"] = 0
        text = "; ".join(validate_experiment_config(cfg))
        assert "training.batch_size: must be >= 1" in text
        assert "training.eval_max_new: must be >= 1" in text
        assert "task.n_eval" in text

    def test_config_id_charset(self):
        cfg = tiny_cfg()
        cfg["config_id"] = "bad,id"
        assert validate_experiment_config(cfg)

    @pytest.mark.parametrize("key, value", [
        ("norm_mean", [0.5, 0.5]),
        ("norm_std", [0.5, 0.5, 0.5, 0.5]),
        ("norm_mean", ["0.5", 0.5, 0.5]),
        ("norm_std", [0.5, True, 0.5]),
        ("norm_std", [0.5, 0.0, 0.5]),
    ], ids=["short", "long", "string", "bool", "zero-std"])
    def test_channel_stats_checked_before_any_compute(self, key, value):
        # every branch normalizes with the constant 0.5, so a channel
        # stat of any value is an unknown key
        cfg = tiny_cfg()
        cfg["model"]["encoder_b"][key] = value
        assert validate_experiment_config(cfg) == [
            f"unknown key model.encoder_b.{key}"]

    # the tile side is the encoders', and the stats and extra freezes
    # had one value in use: each is refused, whatever its value
    REMOVED_KEYS = [("model.tile_size", 32),
                    ("model.encoder_a.norm_mean", [0.5, 0.5, 0.5]),
                    ("model.encoder_b.norm_std", [0.5, 0.5, 0.5]),
                    ("training.stage1.extra_frozen", ["projectorA."])]

    @pytest.mark.parametrize("key, value", REMOVED_KEYS,
                             ids=[key for key, _ in REMOVED_KEYS])
    def test_removed_key_is_unknown(self, key, value):
        cfg = tiny_cfg()
        *parents, last = key.split(".")
        section = cfg
        for part in parents:
            section = section[part]
        section[last] = value
        assert validate_experiment_config(cfg) == [f"unknown key {key}"]

    def test_stage_problems_share_one_report(self):
        cfg = tiny_cfg()
        cfg["training"]["stage1"]["steps"] = 0
        cfg["training"]["stage2"]["warmup_steps"] = -5
        cfg["training"]["stage2"]["base_lr"] = -1.0
        assert [p.split(":")[0] for p in validate_experiment_config(cfg)] \
            == ["training.stage1.steps", "training.stage2.warmup_steps",
                "training.stage2.base_lr"]

    # rules the dataclasses own, each reported before any compute
    OWNED_RULES = [
        ("training.stage1.steps", 0, "training.stage1.steps"),
        ("training.stage2.warmup_steps", -5, "training.stage2.warmup_steps"),
        ("training.stage2.base_lr", -1.0, "training.stage2.base_lr"),
        # A's 16px tiles against B's 32px: the mismatch is B's
        ("model.encoder_a.grid_side", 4, "model.encoder_b"),
        ("model.lm.heads", 3, "model.lm.heads"),
        ("model.lm.context_limit", 0, "model.lm.context_limit"),
        ("task.image_size", [32, 16], "task.image_size"),
        ("model.encoder_a.input_filter", "none",
         "model.encoder_a.input_filter"),
    ]

    @pytest.mark.parametrize("key, value, reported", OWNED_RULES,
                             ids=[rule[0] for rule in OWNED_RULES])
    def test_owned_rule_reported_with_its_path(self, key, value, reported):
        cfg = tiny_cfg()
        *path, last = key.split(".")
        section = cfg
        for part in path:
            section = section[part]
        section[last] = value
        assert [p.split(":")[0] for p in validate_experiment_config(cfg)] \
            == [reported]

    def test_one_pixel_tiles_rejected_before_any_compute(self):
        # encoders sized for 1-pixel tiles agree with each other, but
        # the tiler needs tiles of at least 2 pixels
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "tile-detail-tiled.json")
        with open(path) as f:
            cfg = json.load(f)
        for key in ("encoder_a", "encoder_b"):
            cfg["model"][key].update(patch_size=1, grid_side=1,
                                     unshuffle_r=1)
        assert validate_experiment_config(cfg) == [
            "model.encoder_a: tiles must be >= 2 px (patch_size x "
            "grid_side), got 1"]

    def test_failed_section_is_not_built(self):
        # the LM section fails, so the model and the experiment are not
        # built, and their rules do not report on top of it
        cfg = tiny_cfg()
        cfg["model"]["lm"]["heads"] = 3
        cfg["model"]["encoder_a"]["input_filter"] = "none"
        cfg["model"]["encoder_a"]["grid_side"] = 4
        assert [p.split(":")[0] for p in validate_experiment_config(cfg)] \
            == ["model.lm.heads"]

    def test_load_config_reports_owned_rules_at_once(self, tmp_path):
        # every rule above whose section does not sit on another failing
        # one: grid_side and input_filter are checked by the model and
        # experiment sections, which fail to build here
        cfg = tiny_cfg()
        cfg["training"]["stage1"]["steps"] = 0
        cfg["training"]["stage2"]["warmup_steps"] = -5
        cfg["training"]["stage2"]["base_lr"] = -1.0
        cfg["model"]["lm"]["heads"] = 3
        cfg["model"]["lm"]["context_limit"] = 0
        cfg["task"]["image_size"] = [32, 16]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        for key in ("training.stage1.steps", "training.stage2.warmup_steps",
                    "training.stage2.base_lr", "model.lm.heads",
                    "model.lm.context_limit", "task.image_size"):
            assert f"{key}: " in str(err.value)

    def test_load_config_raises_with_all_problems(self, tmp_path):
        cfg = tiny_cfg()
        cfg["model"]["fusion"] = "mean-pool"
        cfg["extra"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "model.fusion" in str(err.value)
        assert "unknown key extra" in str(err.value)

    # tiny_cfg's longest sequence: [BOS], "<img>", 32 visual tokens,
    # "</img>class?" (9 ids), the answer and [EOS] make 43 positions
    def test_context_limit_must_hold_the_longest_training_sequence(self):
        cfg = tiny_cfg()
        cfg["model"]["lm"]["context_limit"] = 42
        assert validate_experiment_config(cfg) == [
            "model.lm.context_limit: training needs 43 positions, "
            "the limit is 42"]
        cfg["model"]["lm"]["context_limit"] = 43
        assert validate_experiment_config(cfg) == []

    def test_context_limit_must_hold_the_longest_eval_decode(self):
        # the 41-position prompt grows by eval_max_new - 1 positions
        cfg = tiny_cfg()
        cfg["training"]["eval_max_new"] = 200
        assert validate_experiment_config(cfg) == [
            "model.lm.context_limit: decoding needs 240 positions, "
            "the limit is 96"]
        cfg["model"]["lm"]["context_limit"] = 240
        assert validate_experiment_config(cfg) == []

    def test_context_budget_counts_the_longest_tile_question(self):
        # a 3x1 tile-detail image asks up to "tile r0c2?" (10 bytes);
        # 3 tiles and a thumbnail of 2 fused tokens each give 8 visual
        # tokens, 23 positions
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "tile-detail-tiled.json")
        with open(path) as f:
            cfg = json.load(f)
        cfg["training"]["eval_max_new"] = 2  # decoding needs 22
        cfg["model"]["lm"]["context_limit"] = 22
        assert [p.split(":")[0] for p in validate_experiment_config(cfg)] \
            == ["model.lm.context_limit"]
        cfg["model"]["lm"]["context_limit"] = 23
        assert validate_experiment_config(cfg) == []

    def test_matrix_validation(self):
        assert validate_matrix({"name": "m", "cells": ["a.json"]}) == []
        assert validate_matrix({"cells": ["a.json"]})
        assert validate_matrix({"name": "m", "cells": []})
        assert validate_matrix({"name": "m", "cells": [3]})


class TestBuilders:
    def test_list_fields_become_tuples(self):
        assert build_task_spec(tiny_cfg()["task"]).image_size == (32, 32)

    def test_pipeline_config_roundtrip(self):
        cfg = build_pipeline_config(tiny_cfg()["model"])
        assert cfg.encoders == "A+B"
        assert cfg.lm.d_lm == 16
        assert cfg.tokens_per_tile() == 32

    def test_stage_plans_default_two_stages(self):
        names = ["encoderA.w", "encoderB.w", "projectorA.w1",
                 "projectorB.w1", "lm.head"]
        plans, frozen = build_stage_plans(tiny_cfg()["training"], names)
        assert [p.name for p in plans] == ["stage1", "stage2"]
        assert frozen == "encoders"
        assert "lm." in plans[0].frozen_prefixes
        assert "lm." not in plans[1].frozen_prefixes

    def test_stage_plans_frozen_adapters(self):
        training = dict(tiny_cfg()["training"])
        training["freeze_vision_adapters"] = True
        names = ["encoderA.w", "encoderB.w", "projectorA.w1",
                 "projectorB.w1", "fusion.down", "lm.head"]
        plans, frozen = build_stage_plans(training, names)
        assert [p.name for p in plans] == ["stage2"]
        assert frozen == "encoders+adapters"
        for prefix in ("projectorA.", "projectorB.", "fusion."):
            assert prefix in plans[0].frozen_prefixes
        assert "projector_shared." not in plans[0].frozen_prefixes


class TestRunExperiment:
    def test_tiny_run_row_fields(self, tmp_path):
        out = str(tmp_path / "run")
        row = run_experiment(tiny_cfg(), out_dir=out)
        assert row.config_id == "tiny"
        assert row.encoders == "A+B"
        assert row.fusion == "post-interleave"
        assert row.tiling is True
        assert row.frozen == "encoders"
        assert 0.0 <= row.accuracy <= 1.0
        assert row.tokens_per_tile == 32
        assert row.tokens_per_image == 32
        assert row.steps == 5
        assert 0 < row.eval_ms < row.wall_ms

    def test_artifacts_written(self, tmp_path):
        out = str(tmp_path / "run")
        row = run_experiment(tiny_cfg(), out_dir=out)
        records = read_metrics(os.path.join(out, "metrics.jsonl"))
        assert len(records) == 5
        assert {r.stage for r in records} == {"stage1", "stage2"}
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert os.path.exists(os.path.join(out, "weights.bin"))
        with open(os.path.join(out, "result.json")) as f:
            assert json.load(f) == asdict(row)

    def test_failed_result_write_leaves_no_result(self, tmp_path,
                                                  monkeypatch):
        out = str(tmp_path / "run")
        run_experiment(tiny_cfg(), out_dir=out)
        monkeypatch.setattr(os, "replace", failing_replace("result.json"))
        cfg = tiny_cfg()
        cfg["seed"] = 4
        with pytest.raises(OSError):
            run_experiment(cfg, out_dir=out)
        assert sorted(os.listdir(out)) == [
            "manifest.json", "metrics.jsonl", "weights.bin"]

    def test_rerun_into_same_dir_keeps_one_run_of_metrics(self, tmp_path):
        out = str(tmp_path / "run")
        run_experiment(tiny_cfg(), out_dir=out)
        run_experiment(tiny_cfg(), out_dir=out)
        records = read_metrics(os.path.join(out, "metrics.jsonl"))
        steps = [(r.stage, r.step) for r in records]
        assert steps == [("stage1", 0), ("stage1", 1),
                         ("stage2", 0), ("stage2", 1), ("stage2", 2)]

    def test_failed_rerun_removes_previous_result(self, tmp_path,
                                                  monkeypatch):
        out = str(tmp_path / "run")
        run_experiment(tiny_cfg(), out_dir=out)
        real = experiment.run_stage

        def run_stage(plan, *args, **kwargs):
            if plan.name == "stage2":
                raise ContractError("non-finite loss at stage2 step 0")
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_stage", run_stage)
        cfg = tiny_cfg()
        cfg["seed"] = 4
        with pytest.raises(ContractError):
            run_experiment(cfg, out_dir=out)
        assert sorted(os.listdir(out)) == [
            "manifest.json", "metrics.jsonl", "weights.bin"]
        records = read_metrics(os.path.join(out, "metrics.jsonl"))
        assert [(r.stage, r.step) for r in records] == [("stage1", 0),
                                                        ("stage1", 1)]

    def test_invalid_config_rejected(self):
        cfg = tiny_cfg()
        cfg["model"]["fusion"] = "mean-pool"
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg)
        assert "model.fusion" in str(err.value)

    def test_complementary_requires_separating_filters(self):
        cfg = tiny_cfg()
        cfg["model"]["encoder_a"].pop("input_filter")
        cfg["model"]["encoder_a"].pop("filter_block")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_run_at_the_exact_context_limit_completes(self):
        cfg = tiny_cfg()
        cfg["model"]["lm"]["context_limit"] = 43
        row = run_experiment(cfg)
        assert row.steps == 5 and 0.0 <= row.accuracy <= 1.0
        cfg["model"]["lm"]["context_limit"] = 42
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg)
        assert "model.lm.context_limit" in str(err.value)

    def test_deterministic_with_injected_clock(self):
        row1 = run_experiment(tiny_cfg(), clock=fake_clock())
        row2 = run_experiment(tiny_cfg(), clock=fake_clock())
        assert asdict(row1) == asdict(row2)

    def test_evaluate_run_matches_reported_accuracy(self, tmp_path):
        out = str(tmp_path / "run")
        row = run_experiment(tiny_cfg(), out_dir=out)
        assert evaluate_run(tiny_cfg(), out) == row.accuracy

    def test_evaluate_run_refuses_an_unfinished_run(self, tmp_path,
                                                     monkeypatch):
        # stage 2 fails, so the run directory holds stage 1's checkpoint
        out = str(tmp_path / "run")
        real = experiment.run_stage

        def run_stage(plan, *args, **kwargs):
            if plan.name == "stage2":
                raise ContractError("non-finite loss at stage2 step 0")
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_stage", run_stage)
        with pytest.raises(ContractError):
            run_experiment(tiny_cfg(), out_dir=out)
        restored = []
        monkeypatch.setattr(experiment, "restore",
                            lambda *args: restored.append(args))
        with pytest.raises(ContractError) as err:
            evaluate_run(tiny_cfg(), out)
        assert "stage1 step 2" in str(err.value)
        assert "stage2 step 3" in str(err.value)
        assert restored == []


def write_cells(tmp_path, cells):
    paths = []
    for cfg in cells:
        p = tmp_path / (cfg["config_id"] + ".json")
        p.write_text(json.dumps(cfg))
        paths.append(p.name)
    return paths


def tiny_matrix(tmp_path, names, name="tiny-matrix"):
    return {"name": name, "seed": 3, "cells": names}


class TestAblate:
    def test_all_cells_complete(self, tmp_path):
        a = tiny_cfg()
        b = tiny_cfg()
        b["config_id"] = "tiny-b"
        b["model"]["encoders"] = "B"
        names = write_cells(tmp_path, [a, b])
        report = ablate(tiny_matrix(tmp_path, names), str(tmp_path),
                        clock=fake_clock())
        assert report.complete is True
        assert [c.config_id for c in report.rows] == ["tiny", "tiny-b"]
        assert all(c.status == "ok" for c in report.rows)
        assert report.seed == 3

    def test_matrix_seed_replaces_every_cell_seed(self, tmp_path,
                                                  monkeypatch):
        a = tiny_cfg()
        b = tiny_cfg()
        b["config_id"] = "tiny-b"
        b["seed"] = 9
        names = write_cells(tmp_path, [a, b])
        seeds = []
        pipeline = experiment.Pipeline
        monkeypatch.setattr(
            experiment, "Pipeline",
            lambda model, seed: seeds.append(seed) or pipeline(model, seed))
        matrix = tiny_matrix(tmp_path, names)
        matrix["seed"] = 6
        report = ablate(matrix, str(tmp_path), clock=fake_clock())
        assert seeds == [6, 6]
        assert report.seed == 6
        assert json.loads(report_to_json(report))["seed"] == 6
        seeds.clear()
        del matrix["seed"]
        report = ablate(matrix, str(tmp_path), clock=fake_clock())
        assert seeds == [3, 9]
        assert report.seed is None

    def test_csv_bytes_deterministic(self, tmp_path):
        a = tiny_cfg()
        b = tiny_cfg()
        b["config_id"] = "tiny-b"
        names = write_cells(tmp_path, [a, b])
        matrix = tiny_matrix(tmp_path, names)
        csv1 = report_to_csv(ablate(matrix, str(tmp_path),
                                    clock=fake_clock()))
        csv2 = report_to_csv(ablate(matrix, str(tmp_path),
                                    clock=fake_clock()))
        assert csv1.encode() == csv2.encode()
        assert csv1.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_json_mirror_matches_csv(self, tmp_path):
        names = write_cells(tmp_path, [tiny_cfg()])
        report = ablate(tiny_matrix(tmp_path, names), str(tmp_path),
                        clock=fake_clock())
        payload = json.loads(report_to_json(report))
        assert payload["complete"] is True
        row = payload["rows"][0]
        csv_row = report_to_csv(report).splitlines()[1].split(",")
        assert row["config_id"] == csv_row[0]
        assert f"{row['accuracy']:.6f}" == csv_row[5]
        assert str(row["tokens_per_tile"]) == csv_row[6]

    def test_failed_cell_flags_partial_report(self, tmp_path):
        good = tiny_cfg()
        bad = tiny_cfg()
        bad["config_id"] = "tiny-bad"
        bad["model"]["fusion"] = "mean-pool"
        names = write_cells(tmp_path, [good, bad])
        report = ablate(tiny_matrix(tmp_path, names), str(tmp_path),
                        clock=fake_clock())
        assert report.complete is False
        assert report.rows[0].status == "ok"
        assert report.rows[1].status == "failed"
        assert "fusion" in report.rows[1].error
        line = report_to_csv(report).splitlines()[2]
        assert line.startswith("tiny-bad,")
        assert line.endswith(",failed")

    def test_missing_cell_file_is_a_failed_row(self, tmp_path):
        names = write_cells(tmp_path, [tiny_cfg()]) + ["ghost.json"]
        report = ablate(tiny_matrix(tmp_path, names), str(tmp_path),
                        clock=fake_clock())
        assert report.complete is False
        assert report.rows[1].config_id == "ghost"
        assert report.rows[1].status == "failed"

    def test_duplicate_config_id_fails_second_cell(self, tmp_path):
        names = write_cells(tmp_path, [tiny_cfg()])
        matrix = tiny_matrix(tmp_path, names + names)
        report = ablate(matrix, str(tmp_path), clock=fake_clock())
        assert report.rows[0].status == "ok"
        assert report.rows[1].status == "failed"
        assert "duplicate" in report.rows[1].error

    def test_write_report_files(self, tmp_path):
        names = write_cells(tmp_path, [tiny_cfg()])
        report = ablate(tiny_matrix(tmp_path, names), str(tmp_path),
                        clock=fake_clock())
        out = tmp_path / "report"
        paths = write_report(report, str(out))
        assert sorted(os.path.basename(p) for p in paths) == \
            ["report.csv", "report.json"]
        with open(os.path.join(str(out), "report.csv")) as f:
            assert f.read() == report_to_csv(report)

    def test_failed_report_write_keeps_previous_files(self, tmp_path,
                                                      monkeypatch):
        names = write_cells(tmp_path, [tiny_cfg()])
        report = ablate(tiny_matrix(tmp_path, names), str(tmp_path),
                        clock=fake_clock())
        out = tmp_path / "report"
        write_report(report, str(out))
        before = {n: (out / n).read_text() for n in os.listdir(out)}
        renamed = copy.copy(report)
        renamed.name = "renamed"
        for name in ("report.csv", "report.json"):
            with monkeypatch.context() as m:
                m.setattr(os, "replace", failing_replace(name))
                with pytest.raises(OSError):
                    write_report(renamed, str(out))
            assert {n: (out / n).read_text()
                    for n in os.listdir(out)} == before

    def test_per_cell_artifacts_under_out_dir(self, tmp_path):
        names = write_cells(tmp_path, [tiny_cfg()])
        out = tmp_path / "out"
        ablate(tiny_matrix(tmp_path, names), str(tmp_path),
               out_dir=str(out), clock=fake_clock())
        assert (out / "tiny" / "metrics.jsonl").exists()
        assert (out / "tiny" / "weights.bin").exists()
        assert (out / "report.csv").exists()

    def test_invalid_matrix_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ablate({"name": "m", "cells": []}, str(tmp_path))


def test_shipped_configs_validate():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    seen = 0
    for name in sorted(os.listdir(root)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(root, name)
        with open(path) as f:
            payload = json.load(f)
        if "cells" in payload:
            assert validate_matrix(payload) == [], name
            for cell in payload["cells"]:
                assert os.path.exists(os.path.join(root, cell))
        else:
            load_config(path)
            build_pipeline_config(payload["model"])
        seen += 1
    assert seen >= 11
