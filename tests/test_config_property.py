"""Validation is total: a config that builds, runs.

A seeded generator draws toy experiment configs over both tasks: the
task geometry, encoders, fusion, tiling, thumbnail, input filters, LM
width and heads, context limit, batch size and eval_max_new. It builds
geometry from divisors (a tile side is a patch size times a grid side,
an unshuffle factor divides its grid side, a head count divides its
width), so that most draws validate, and lets a share of draws break a
rule on purpose (a filter block that does not divide the tile, filters
the complementary task forbids, a context limit a few positions short,
unequal channel-fusion token counts, an empty train split, an image or
a task tile too small for its task). For every
draw, either build_experiment raises ConfigError, or the experiment
runs to its end (run_experiment, 1 + 1 steps) and `tilefusion gen-data`
writes its data. A failure here is a validator bug: mend the validator,
never the run path's error handling.
"""

import json
import math

import numpy as np
import pytest

from tilefusion.assembly import ByteTokenizer, build_prompt
from tilefusion.cli import main
from tilefusion.datagen import (COMPLEMENTARY_QUESTION, load_dataset,
                                tile_detail_question)
from tilefusion.errors import ConfigError
from tilefusion.experiment import build_experiment, run_experiment
from tilefusion.tiling import patch_count, select_grid

GENERATOR_SEED = 23
N_DRAWS = 72
FUSIONS = ("post-interleave", "post-channel", "pre-sequence", "pre-channel")


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def pick(rng, values):
    return values[int(rng.integers(len(values)))]


def draw_encoder(rng, tile, patches):
    """An encoder over tile-px tiles with a patch size from patches;
    its grid side is at most 8, so a tile is at most 64 tokens."""
    patch = pick(rng, patches)
    grid = tile // patch
    heads = pick(rng, [1, 2])
    return {"patch_size": patch, "embed_dim": heads * pick(rng, [2, 4]),
            "depth": 1, "heads": heads, "grid_side": grid,
            "unshuffle_r": pick(rng, divisors(grid))}


def tokens_per_tile(enc):
    return (enc["grid_side"] // enc["unshuffle_r"]) ** 2


def draw_model(rng, kind, tile):
    fits = [d for d in divisors(tile) if tile // d <= 8]
    if kind == "complementary":
        # A is the coarse branch (lowpass, patches a multiple of the
        # 2px texture cell), B the fine one (highpass, finer patches)
        coarse = [d for d in fits if d % 2 == 0 and d > min(fits)]
        enc_a = draw_encoder(rng, tile, coarse)
        enc_b = draw_encoder(rng, tile, [d for d in fits
                                         if d < enc_a["patch_size"]])
        enc_a.update(input_filter="lowpass", filter_block=2)
        enc_b.update(input_filter="highpass", filter_block=2)
        if rng.random() < 0.1:  # filters the task forbids
            enc_a["input_filter"], enc_b["input_filter"] = \
                enc_b["input_filter"], enc_a["input_filter"]
    else:
        enc_a = draw_encoder(rng, tile, fits)
        enc_b = draw_encoder(rng, tile, fits)
        for enc in (enc_a, enc_b):
            enc["input_filter"] = pick(rng, ["none", "lowpass", "highpass"])
            # a divisor of the tile, now and then not
            enc["filter_block"] = (pick(rng, [3, 5]) if rng.random() < 0.1
                                   else pick(rng, divisors(tile)[:3]))
    encoders = pick(rng, ["A", "B", "A+B", "A+B", "A+B"])
    fusion = pick(rng, FUSIONS)
    if fusion in ("post-channel", "pre-channel") and rng.random() < 0.8:
        # equal token counts per tile, where B's grid allows it
        want = math.isqrt(tokens_per_tile(enc_a))
        if enc_b["grid_side"] % want == 0:
            enc_b["unshuffle_r"] = enc_b["grid_side"] // want
    if fusion == "pre-sequence" and rng.random() < 0.8:
        # equal widths, embed_dim * unshuffle_r ** 2, where B allows it
        width = enc_a["embed_dim"] * enc_a["unshuffle_r"] ** 2
        for r in divisors(enc_b["grid_side"]):
            if width % (r * r * enc_b["heads"]) == 0:
                enc_b.update(unshuffle_r=r, embed_dim=width // (r * r))
                break
    lm_heads = pick(rng, [1, 2])
    # about one draw in five is untiled, max_tiles 1; the grid bound is
    # drawn either way, so no later draw depends on that choice
    tiled = rng.random() < 0.8
    thumbnail = bool(rng.random() < 0.5)
    max_tiles = int(rng.integers(1, 5))
    if not tiled:
        max_tiles = 1
    return {
        "encoders": encoders, "fusion": fusion,
        "thumbnail": thumbnail, "max_tiles": max_tiles,
        "projector_hidden": pick(rng, [4, 8]),
        "encoder_a": enc_a, "encoder_b": enc_b,
        "lm": {"d_lm": lm_heads * pick(rng, [4, 8]),
               "layers": int(rng.integers(1, 3)), "heads": lm_heads},
    }


def longest_sequence(task, model, eval_max_new):
    """Positions the longest training or decoding sequence takes, counted
    here from the prompt, the tiler and the token counts."""
    w, h = task["image_size"]
    question = (COMPLEMENTARY_QUESTION if task["kind"] == "complementary"
                else tile_detail_question(h // task["tile_size"] - 1,
                                          w // task["tile_size"] - 1))
    prompt = len(ByteTokenizer().encode(build_prompt(1, question)))
    used = [model[key] for label, key in (("A", "encoder_a"),
                                          ("B", "encoder_b"))
            if label in model["encoders"]]
    channel = model["fusion"] in ("post-channel", "pre-channel")
    per_tile = (tokens_per_tile(used[0]) if channel and len(used) == 2
                else sum(tokens_per_tile(e) for e in used))
    patches = patch_count(select_grid(w, h, model["max_tiles"]),
                          model["thumbnail"])
    return prompt + per_tile * patches + max(2, eval_max_new - 1)


def draw_config(rng, i):
    kind = pick(rng, ["complementary", "tile-detail"])
    if kind == "complementary":
        side = pick(rng, [28] + [32, 36, 40] * 2)  # 28: too few blocks
        task = {"kind": kind, "image_size": [side, side], "tile_size": side,
                "n_classes": 16}
        tile = pick(rng, [8, 12, 16])
    else:
        t = pick(rng, [10] + [11, 12, 16] * 2)  # 10: no room for a glyph
        cols, rows = pick(rng, [(2, 1), (1, 2), (3, 1), (2, 2), (1, 3)])
        task = {"kind": kind, "image_size": [cols * t, rows * t],
                "tile_size": t, "n_classes": int(rng.integers(2, 9))}
        tile = pick(rng, [8, 12, 16])
    task.update(n_train=int(rng.integers(0, 13)),
                n_eval=int(rng.integers(1, 4)),
                seed=int(rng.integers(100)))
    model = draw_model(rng, kind, tile)
    eval_max_new = int(rng.integers(1, 4))
    # the longest sequence, give or take a few positions: a draw may
    # fall short of the context limit validation checks
    model["lm"]["context_limit"] = max(1, longest_sequence(
        task, model, eval_max_new) + int(rng.integers(-2, 14)))
    return {
        "config_id": f"draw-{i:02d}",
        "seed": int(rng.integers(100)),
        "task": task,
        "model": model,
        "training": {
            "batch_size": int(rng.integers(1, 5)),
            "eval_max_new": eval_max_new,
            "freeze_vision_adapters": bool(rng.random() < 0.2),
            "stage1": {"steps": 1},
            "stage2": {"steps": 1},
        },
    }


def draws():
    rng = np.random.default_rng(GENERATOR_SEED)
    return [draw_config(rng, i) for i in range(N_DRAWS)]


DRAWS = draws()


def builds(cfg):
    try:
        build_experiment(cfg)
    except ConfigError:
        return False
    return True


def test_most_draws_validate_and_some_do_not():
    built = sum(builds(cfg) for cfg in DRAWS)
    assert 36 <= built < N_DRAWS, built


@pytest.mark.parametrize("cfg", DRAWS, ids=[c["config_id"] for c in DRAWS])
def test_a_config_that_builds_runs(cfg, tmp_path):
    if not builds(cfg):
        return
    result = run_experiment(cfg)
    assert 0.0 <= result.accuracy <= 1.0
    assert result.steps == (1 if cfg["training"]["freeze_vision_adapters"]
                            else 2)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(path),
                 "--out", str(tmp_path / "data")]) == 0
    task = cfg["task"]
    assert len(load_dataset(str(tmp_path / "data" / "train.jsonl"))) == \
        task["n_train"]
