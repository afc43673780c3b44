"""Command line tests run through main() with tiny configs."""

import json
import os

import numpy as np
import pytest

from tilefusion import experiment
from tilefusion.cli import main
from tilefusion.datagen import load_dataset
from tilefusion.errors import ContractError
from tilefusion.experiment import build_pipeline_config, build_task_spec, \
    load_config, planned_patches
from tilefusion.model import Pipeline
from tilefusion.tiling import ImageBuffer

from config_checks import tiny_cfg

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_cfg(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGenData:
    def test_writes_both_splits(self, tmp_path, capsys):
        path = write_cfg(tmp_path, tiny_cfg())
        out = str(tmp_path / "data")
        assert main(["gen-data", "--config", path, "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("train: 24 samples")
        assert lines[1].startswith("eval: 8 samples")
        assert len(load_dataset(os.path.join(out, "train.jsonl"))) == 24
        assert len(load_dataset(os.path.join(out, "eval.jsonl"))) == 8

    def test_accepts_bare_task_config(self, tmp_path):
        path = write_cfg(tmp_path, tiny_cfg()["task"], "task.json")
        out = str(tmp_path / "data")
        assert main(["gen-data", "--config", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "eval.jsonl"))

    def test_seed_override_changes_data(self, tmp_path):
        path = write_cfg(tmp_path, tiny_cfg()["task"], "task.json")
        out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        main(["gen-data", "--config", path, "--out", out1,
              "--seed", "5"])
        main(["gen-data", "--config", path, "--out", out2,
              "--seed", "6"])
        a = load_dataset(os.path.join(out1, "train.jsonl"))
        b = load_dataset(os.path.join(out2, "train.jsonl"))
        assert any(
            x.images[0].pixels.tobytes() != y.images[0].pixels.tobytes()
            for x, y in zip(a, b))

    def test_bad_task_config_exits_2(self, tmp_path, capsys):
        cfg = tiny_cfg()["task"]
        cfg["kind"] = "riddles"
        path = write_cfg(tmp_path, cfg, "task.json")
        code = main(["gen-data", "--config", path,
                     "--out", str(tmp_path / "d")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        code = main(["gen-data", "--config", str(path),
                     "--out", str(tmp_path / "d")])
        assert code == 2
        assert "error: invalid config: task: expected an object" in \
            capsys.readouterr().err

    def test_seed_on_non_object_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        code = main(["gen-data", "--config", str(path),
                     "--out", str(tmp_path / "d"), "--seed", "4"])
        assert code == 2
        assert "error: invalid config: task: expected an object" in \
            capsys.readouterr().err


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, capsys):
        path = write_cfg(tmp_path, tiny_cfg())
        out = str(tmp_path / "run")
        assert main(["train", "--config", path, "--out", out]) == 0
        train_out = capsys.readouterr().out
        assert "eval accuracy:" in train_out
        assert os.path.exists(os.path.join(out, "result.json"))

        assert main(["eval", "--config", path, "--out", out]) == 0
        eval_out = capsys.readouterr().out
        with open(os.path.join(out, "result.json")) as f:
            acc = json.load(f)["accuracy"]
        assert f"eval accuracy: {acc:.4f}" in eval_out

    def test_train_without_out_dir(self, tmp_path, capsys):
        path = write_cfg(tmp_path, tiny_cfg())
        assert main(["train", "--config", path]) == 0
        assert "eval accuracy:" in capsys.readouterr().out

    def test_seed_override_leaves_the_task_data(self, tmp_path,
                                                monkeypatch):
        # train --seed replaces the top-level seed alone (the init and
        # the batch order); the task, and so the data, stay the config's
        cfg = tiny_cfg()
        path = write_cfg(tmp_path, cfg)
        specs, seeds = [], []
        generate, pipeline = experiment.generate, experiment.Pipeline
        monkeypatch.setattr(experiment, "generate",
                            lambda spec: specs.append(spec) or generate(spec))
        monkeypatch.setattr(
            experiment, "Pipeline",
            lambda model, seed: seeds.append(seed) or pipeline(model, seed))
        assert main(["train", "--config", path, "--seed", "11"]) == 0
        assert specs == [build_task_spec(cfg["task"])]
        assert specs[0].seed == cfg["task"]["seed"] == 5
        assert seeds == [11]

    def test_eval_takes_no_seed(self, tmp_path, capsys):
        # a checkpoint overwrites the whole init a seed draws, and the
        # eval split comes from task.seed, so eval has no seed to set
        path = write_cfg(tmp_path, tiny_cfg())
        with pytest.raises(SystemExit) as err:
            main(["eval", "--config", path, "--out", str(tmp_path / "run"),
                  "--seed", "3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tiny_cfg()
        cfg["model"]["fusion"] = "mean-pool"
        path = write_cfg(tmp_path, cfg)
        assert main(["train", "--config", path]) == 2
        assert "model.fusion" in capsys.readouterr().err

    def test_eval_of_unfinished_run_exits_2(self, tmp_path, monkeypatch,
                                             capsys):
        # stage 2 fails, so the run directory holds stage 1's checkpoint
        real = experiment.run_stage

        def run_stage(plan, *args, **kwargs):
            if plan.name == "stage2":
                raise ContractError("non-finite loss at stage2 step 0")
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_stage", run_stage)
        path = write_cfg(tmp_path, tiny_cfg())
        out = str(tmp_path / "run")
        assert main(["train", "--config", path, "--out", out]) == 2
        capsys.readouterr()
        assert main(["eval", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "stage1 step 2" in err and "stage2 step 3" in err

    def test_malformed_manifest_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, tiny_cfg())
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("[]")
        (out / "weights.bin").write_bytes(b"")
        assert main(["eval", "--config", path, "--out", str(out)]) == 2
        assert "error: checkpoint manifest" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["train", "--config",
                     str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAblateVerb:
    def write_matrix(self, tmp_path, cells, name="matrix.json"):
        names = []
        for cfg in cells:
            cell = tmp_path / (cfg["config_id"] + ".json")
            cell.write_text(json.dumps(cfg))
            names.append(cell.name)
        matrix = {"name": "m", "seed": 3, "cells": names}
        path = tmp_path / name
        path.write_text(json.dumps(matrix))
        return str(path)

    def test_complete_matrix_exits_0(self, tmp_path, capsys):
        b = tiny_cfg()
        b["config_id"] = "tiny-b"
        b["model"]["encoders"] = "B"
        path = self.write_matrix(tmp_path, [tiny_cfg(), b])
        out = str(tmp_path / "out")
        assert main(["ablate", "--config", path, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "tiny: accuracy" in text
        assert "tiny-b: accuracy" in text
        assert os.path.exists(os.path.join(out, "report.csv"))
        assert os.path.exists(os.path.join(out, "report.json"))

    def test_failed_cell_exits_1(self, tmp_path, capsys):
        bad = tiny_cfg()
        bad["config_id"] = "tiny-bad"
        bad["model"]["fusion"] = "mean-pool"
        path = self.write_matrix(tmp_path, [tiny_cfg(), bad])
        assert main(["ablate", "--config", path]) == 1
        text = capsys.readouterr().out
        assert "tiny-bad: FAILED" in text
        assert "PARTIAL" in text

    def test_seed_sets_the_matrix_seed(self, tmp_path, monkeypatch):
        b = tiny_cfg()
        b["config_id"] = "tiny-b"
        b["seed"] = 9
        path = self.write_matrix(tmp_path, [tiny_cfg(), b])
        out = tmp_path / "out"
        seeds = []
        pipeline = experiment.Pipeline
        monkeypatch.setattr(
            experiment, "Pipeline",
            lambda model, seed: seeds.append(seed) or pipeline(model, seed))
        assert main(["ablate", "--config", path, "--out", str(out),
                     "--seed", "8"]) == 0
        assert seeds == [8, 8]
        assert json.loads((out / "report.json").read_text())["seed"] == 8

    def test_seed_on_non_object_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_text('"cells"')
        assert main(["ablate", "--config", str(path), "--seed", "8"]) == 2
        assert "error: invalid matrix: config: expected an object" in \
            capsys.readouterr().err

    def test_report_format_is_not_an_option(self, tmp_path, capsys):
        # every report is written in both formats
        path = self.write_matrix(tmp_path, [tiny_cfg()])
        with pytest.raises(SystemExit) as err:
            main(["ablate", "--config", path, "--report", "csv"])
        assert err.value.code == 2
        assert "unrecognized arguments: --report csv" in \
            capsys.readouterr().err


class TestInspectTiling:
    def test_default_geometry(self, capsys):
        assert main(["inspect-tiling", "2048x1280"]) == 0
        text = capsys.readouterr().out
        assert "grid: 3x2 (6 tiles)" in text
        assert "thumbnail: yes" in text
        assert "patches: 7" in text

    def test_single_tile_suppresses_thumbnail(self, capsys):
        assert main(["inspect-tiling", "448x448"]) == 0
        text = capsys.readouterr().out
        assert "grid: 1x1 (1 tiles)" in text
        assert "thumbnail: no" in text
        assert "patches: 1" in text

    def test_config_drives_tokens(self, tmp_path, capsys):
        path = write_cfg(tmp_path, tiny_cfg())
        assert main(["inspect-tiling", "96x32", "--config", path]) == 0
        text = capsys.readouterr().out
        assert "grid: 3x1 (3 tiles)" in text
        assert "patches: 4" in text
        assert "tokens per tile: 32" in text
        assert "tokens per image: 128" in text

    @pytest.mark.parametrize("name", ["tile-detail-tiled",
                                      "tile-detail-untiled"])
    def test_config_report_matches_the_pipeline(self, name, capsys):
        path = os.path.join(CONFIG_DIR, f"{name}.json")
        assert main(["inspect-tiling", "96x32", "--config", path]) == 0
        text = capsys.readouterr().out
        cfg = build_pipeline_config(load_config(path)["model"])
        tiles = Pipeline(cfg).segment_image(ImageBuffer(np.zeros((32, 96, 3))))
        patches = len(tiles.patches)
        assert patches == (4 if cfg.max_tiles > 1 else 1)
        assert patches == planned_patches(cfg, (96, 32))
        assert f"thumbnail: {'yes' if cfg.max_tiles > 1 else 'no'}\n" in text
        assert f"patches: {patches}\n" in text
        assert (f"tokens per image: {cfg.tokens_per_tile() * patches}\n"
                in text)

    def test_geometry_flags_without_config(self, capsys):
        assert main(["inspect-tiling", "2048x1280", "--tile", "224",
                     "--max-tiles", "2"]) == 0
        text = capsys.readouterr().out
        assert "tile: 224, max tiles: 2" in text
        assert "grid: 2x1 (2 tiles)" in text
        assert "patches: 3" in text

    @pytest.mark.parametrize("flags", [["--tile", "448"],
                                       ["--max-tiles", "2"],
                                       ["--tile", "448", "--max-tiles", "2"]])
    def test_geometry_flags_refused_beside_config(self, flags, capsys):
        # the config sets the tile side and the grid bound
        path = os.path.join(CONFIG_DIR, "complementary-hybrid.json")
        with pytest.raises(SystemExit) as err:
            main(["inspect-tiling", "2048x1280", *flags, "--config", path])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        given = " and ".join(f for f in flags if f.startswith("--"))
        assert f"{given} cannot be given with --config" in err_text

    def test_bad_size_exits_2(self, capsys):
        assert main(["inspect-tiling", "wide"]) == 2
        assert "error:" in capsys.readouterr().err


def test_unknown_verb_is_a_parse_error():
    with pytest.raises(SystemExit):
        main(["transmogrify"])
