"""churnkit: session-level return-time and churn modeling.

User activity logs are segmented into sessions; a recurrent network with a
logit-normal latent loyalty variable defines the conditional intensity of a
temporal point process over absence gaps and a Poisson model over session
durations.  Training maximizes a per-step variational lower bound by
truncated backpropagation through time, written out by hand and run on all
users of an optimizer batch at once.
"""

from .errors import (
    CheckpointShapeError,
    CheckpointVersionError,
    ChurnkitError,
    CorruptCheckpointError,
    DataError,
    NumericalError,
)
from .eventlog import (
    Session,
    SessionSequence,
    derive_seed,
    ingest_events,
    read_sessions,
    sessionize,
    sessionize_log,
    split_users,
    write_sessions,
)
from .evalharness import BaselinePredictor, MetricSummary, compare, compute_metrics, fit_baseline
from .inference import (
    AlarmPolicy,
    PredictionRecord,
    churn_alarm,
    predict_next,
    rolling_evaluate,
    rolling_evaluate_many,
    user_history_stats,
)
from .model import ModelParams, init_params
from .simulate import GeneratorSpec, generate
from .tppmath import expected_gap
from .train import (
    TrainConfig,
    TrainReport,
    gradcheck_elbo,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AlarmPolicy",
    "BaselinePredictor",
    "CheckpointShapeError",
    "CheckpointVersionError",
    "ChurnkitError",
    "CorruptCheckpointError",
    "DataError",
    "GeneratorSpec",
    "MetricSummary",
    "ModelParams",
    "NumericalError",
    "PredictionRecord",
    "Session",
    "SessionSequence",
    "TrainConfig",
    "TrainReport",
    "churn_alarm",
    "compare",
    "compute_metrics",
    "derive_seed",
    "expected_gap",
    "fit_baseline",
    "generate",
    "gradcheck_elbo",
    "ingest_events",
    "init_params",
    "load_checkpoint",
    "predict_next",
    "read_sessions",
    "rolling_evaluate",
    "rolling_evaluate_many",
    "save_checkpoint",
    "sessionize",
    "sessionize_log",
    "split_users",
    "train",
    "user_history_stats",
    "write_sessions",
]
