"""Config checks that only the tests run, and the tiny experiment
config the harness and command line tests share.

Each check returns the problem list that the program's own config
loading (experiment.load_config and the build_* functions) raises,
section by section.
"""

from tilefusion import experiment


def validate_experiment_config(cfg) -> list:
    """Every problem with an experiment config, each with its key path."""
    problems = []
    experiment._build(problems, cfg, experiment.ExperimentConfig, "")
    return problems


def validate_matrix(matrix) -> list:
    """Every problem with a matrix config, each with its key path."""
    problems = []
    experiment._build(problems, matrix, experiment.MatrixConfig, "")
    return problems


def tiny_cfg():
    """A complementary-task experiment of 24 + 8 samples and 2 + 3
    steps, as a fresh dict on every call."""
    return {
        "config_id": "tiny",
        "seed": 3,
        "task": {"kind": "complementary", "image_size": [32, 32],
                 "tile_size": 32, "n_classes": 16, "n_train": 24,
                 "n_eval": 8, "seed": 5},
        "model": {
            "encoders": "A+B",
            "fusion": "post-interleave",
            "thumbnail": True,
            "max_tiles": 6,
            "projector_hidden": 8,
            "encoder_a": {"patch_size": 4, "embed_dim": 8, "depth": 1,
                          "heads": 2, "grid_side": 8, "unshuffle_r": 2,
                          "input_filter": "lowpass",
                          "filter_block": 2},
            "encoder_b": {"patch_size": 2, "embed_dim": 8, "depth": 1,
                          "heads": 2, "grid_side": 16,
                          "unshuffle_r": 4,
                          "input_filter": "highpass",
                          "filter_block": 2},
            "lm": {"d_lm": 16, "layers": 1, "heads": 2,
                   "context_limit": 96},
        },
        "training": {
            "batch_size": 4,
            "eval_max_new": 2,
            "stage1": {"steps": 2, "base_lr": 1e-3,
                       "weight_decay": 0.01},
            "stage2": {"steps": 3, "base_lr": 1e-3,
                       "weight_decay": 0.01},
        },
    }
