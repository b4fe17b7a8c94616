"""Augmentation-free semi-supervised learning over pre-embedded datasets.

Five proxy-label algorithms (threshold- and count-based self-training,
co-training, tri-training, tri-training with disagreement) around a small
from-scratch MLP classifier, plus the cross-validated multi-seed experiment
protocol that compares them against supervised and fully-labeled baselines
with paired significance testing.
"""

from .classifier import MlpModel, RunRecord, TrainConfig, fit, init_model, predict
from .dataset import (
    Dataset,
    SamplingStrategy,
    SemiSplit,
    bootstrap_sample,
    load_csv,
    make_semi_split,
    save_csv,
    split_features,
)
from .engine import (
    PseudoLabelBatch,
    SslConfig,
    SslOutcome,
    majority_vote,
    run_algorithm,
    run_supervised,
    select_by_count,
    select_by_threshold,
)
from .errors import ConfigError, DataError, NumericError, ProtocolError, ProxySslError, ShapeError
from .numerics import Rng
from .protocol import (
    AlgorithmEntry,
    CellResult,
    ComparisonTable,
    ExperimentGrid,
    RunResult,
    mark_significance,
    run_grid,
    tables_from_results,
)
from .stats import paired_t_test, regularized_incomplete_beta, t_two_tailed_p
from .synthetic import make_blobs

__version__ = "0.1.0"

__all__ = [
    "AlgorithmEntry", "CellResult", "ComparisonTable", "ConfigError", "DataError",
    "Dataset", "ExperimentGrid", "MlpModel", "NumericError",
    "ProtocolError", "ProxySslError", "PseudoLabelBatch", "Rng", "RunRecord",
    "RunResult", "SamplingStrategy", "SemiSplit", "ShapeError", "SslConfig",
    "SslOutcome", "TrainConfig", "bootstrap_sample", "fit", "init_model",
    "load_csv", "majority_vote", "make_blobs", "make_semi_split", "mark_significance",
    "paired_t_test", "predict", "regularized_incomplete_beta", "run_algorithm",
    "run_grid", "run_supervised", "save_csv", "select_by_count", "select_by_threshold",
    "split_features", "t_two_tailed_p", "tables_from_results",
]
