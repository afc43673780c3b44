"""Command line front end.

Verbs:
  gen-data        write a synthetic dataset (JSONL index + PPM images)
  train           run both training stages for one experiment config
  eval            re-evaluate a finished run from its checkpoint; a
                  run whose checkpoint is not its last stage's end
                  is refused (exit 2)
  ablate          run a matrix of experiment configs, write
                  report.csv and report.json
  inspect-tiling  show the grid the tiler picks for an image size:
                  at --tile and --max-tiles, or with --config (which
                  refuses both) at that config's tile side (its
                  encoders') and grid bound

Every verb but ablate reads its config file through read_config, so a
file that names a `base` is read merged over it; ablate's matrix file
is plain JSON, and each of its cells is read like a train config.

The config carries every seed of a run, and --seed writes into the
dict a verb loaded: gen-data sets task.seed, train sets seed, and
ablate sets the matrix seed, which replaces every cell's seed. eval
takes no --seed. A config that is not an object is left as it is, for
validation to report.
"""

import argparse
import json
import os
import re
import sys

from .datagen import generate, save_dataset
from .errors import BudgetError, ConfigError, ContractError, \
    DimensionError
from .experiment import (
    ablate,
    build_pipeline_config,
    build_task_spec,
    evaluate_run,
    load_config,
    read_config,
    run_experiment,
)
from .tiling import patch_count, select_grid

DEFAULT_TILE, DEFAULT_MAX_TILES = 448, 6  # inspect-tiling without --config

_SIZE_RE = re.compile(r"^(\d+)x(\d+)$")


def cmd_gen_data(args) -> int:
    cfg = read_config(args.config)
    task = cfg.get("task", cfg) if isinstance(cfg, dict) else cfg
    if args.seed is not None and isinstance(task, dict):
        task["seed"] = args.seed
    spec = build_task_spec(task)
    data = generate(spec)
    for split, samples in (("train", data.train), ("eval", data.eval)):
        index = save_dataset(samples, args.out, split)
        print(f"{split}: {len(samples)} samples -> {index}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    result = run_experiment(cfg, out_dir=args.out)
    print(f"config_id: {result.config_id}")
    print(f"steps: {result.steps}")
    print(f"eval accuracy: {result.accuracy:.4f}")
    if args.out:
        print(f"artifacts: {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    accuracy = evaluate_run(cfg, args.out)
    print(f"config_id: {cfg['config_id']}")
    print(f"eval accuracy: {accuracy:.4f}")
    return 0


def cmd_ablate(args) -> int:
    with open(args.config) as f:
        matrix = json.load(f)
    if args.seed is not None and isinstance(matrix, dict):
        matrix["seed"] = args.seed
    report = ablate(matrix, os.path.dirname(os.path.abspath(args.config)),
                    out_dir=args.out)
    if args.out:
        for name in ("csv", "json"):
            print(f"wrote {os.path.join(args.out, 'report.' + name)}")
    for cell in report.rows:
        if cell.result is None:
            print(f"{cell.config_id}: FAILED ({cell.error})")
        else:
            print(f"{cell.config_id}: accuracy "
                  f"{cell.result.accuracy:.4f}")
    if not report.complete:
        print("report is PARTIAL: at least one cell failed")
        return 1
    return 0


def cmd_inspect_tiling(args) -> int:
    m = _SIZE_RE.match(args.size)
    if not m:
        raise ConfigError(
            f"size must look like 1024x768, got {args.size!r}")
    width, height = int(m.group(1)), int(m.group(2))
    tile = DEFAULT_TILE if args.tile is None else args.tile
    max_tiles = DEFAULT_MAX_TILES if args.max_tiles is None else args.max_tiles
    thumbnail, pipe_cfg = True, None
    if args.config:
        cfg = load_config(args.config)
        pipe_cfg = build_pipeline_config(cfg["model"])
        tile = pipe_cfg.tile_size
        max_tiles, thumbnail = pipe_cfg.max_tiles, pipe_cfg.thumbnail
    grid = select_grid(width, height, max_tiles)
    patches = patch_count(grid, thumbnail)
    print(f"input: {width}x{height}")
    print(f"tile: {tile}, max tiles: {max_tiles}")
    print(f"grid: {grid.cols}x{grid.rows} ({grid.n_tiles} tiles)")
    print(f"thumbnail: {'yes' if patches > grid.n_tiles else 'no'}")
    print(f"patches: {patches}")
    if pipe_cfg is not None:
        per_tile = pipe_cfg.tokens_per_tile()
        print(f"tokens per tile: {per_tile}")
        print(f"tokens per image: {per_tile * patches}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilefusion",
        description="tiled dual-encoder vision-language experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, need_out, seed_help=None):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON config file")
        if seed_help is not None:
            p.add_argument("--seed", type=int, default=None, metavar="N",
                           help=seed_help)
        p.add_argument("--out", required=need_out, metavar="DIR",
                       help="output directory")

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    common(p, need_out=True, seed_help="set the config's task.seed")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train one experiment")
    common(p, need_out=False, seed_help="set the config's seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    common(p, need_out=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation matrix")
    common(p, need_out=False, seed_help="set the matrix seed, which "
           "replaces every cell's seed")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("inspect-tiling",
                       help="show grid choice for an image size")
    p.add_argument("size", help="image size as WIDTHxHEIGHT")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="take tile geometry from this experiment config")
    p.add_argument("--tile", type=int, default=None, metavar="PX",
                   help=f"tile side (default {DEFAULT_TILE}; not with "
                   "--config)")
    p.add_argument("--max-tiles", type=int, default=None, metavar="N",
                   help=f"grid bound (default {DEFAULT_MAX_TILES}; not "
                   "with --config)")
    p.set_defaults(fn=cmd_inspect_tiling)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "inspect-tiling" and args.config is not None:
        given = [flag for flag, value in (("--tile", args.tile),
                                          ("--max-tiles", args.max_tiles))
                 if value is not None]
        if given:
            parser.error(f"inspect-tiling: {' and '.join(given)} cannot "
                         "be given with --config, which sets the tile "
                         "geometry")
    try:
        return args.fn(args)
    except (ConfigError, ContractError, DimensionError, BudgetError,
            OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
