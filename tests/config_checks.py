"""Config checks that only the tests run.

Each returns the problem list, or the built section, that the
program's own config loading (experiment.load_config and the build_*
functions) raises or returns, section by section.
"""

from tilefusion import experiment
from tilefusion.encoders import EncoderConfig


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


def build_encoder_config(enc) -> EncoderConfig:
    return experiment._construct(enc, EncoderConfig)
