"""randenc: frozen randomly-initialized sentence encoders with trainable probes.

The encoders (random projection, random LSTM, echo state network, random
CNN, random self-attention, random TreeLSTM) are sampled once from a
seeded prior and never trained; only a lightweight softmax probe is fit
per task. The runner sweeps encoder x dimension x pooling x seed over
task manifests and aggregates accuracies.
"""

__version__ = "0.1.0"

from .embeddings import (
    EmbeddingFormatError,
    TokenSequence,
    WordEmbeddingTable,
    clean_tokens,
    embed_sentence,
    load_embeddings,
    tokenize,
)
from .encoders import (
    ConfigError,
    ENCODER_KINDS,
    POOLINGS,
    build_encoder,
    encode,
    encode_and_pool,
    pool,
)
from .probe import (
    DegenerateTaskError,
    ProbeConfig,
    ProbeModel,
    SplitPlan,
    TrainReport,
    evaluate,
    kfold_accuracy,
    pair_features,
    train_probe,
)
from .runner import ExperimentConfig, ExperimentResult, run_experiment
from .tasks import TaskDataset, load_task, make_synthetic_order_task
from .trees import ParseTree, TreeParseError, parse_bracketed

__all__ = [
    "__version__",
    "EmbeddingFormatError",
    "TokenSequence",
    "WordEmbeddingTable",
    "clean_tokens",
    "embed_sentence",
    "load_embeddings",
    "tokenize",
    "ConfigError",
    "ENCODER_KINDS",
    "POOLINGS",
    "build_encoder",
    "encode",
    "encode_and_pool",
    "pool",
    "DegenerateTaskError",
    "ProbeConfig",
    "ProbeModel",
    "SplitPlan",
    "TrainReport",
    "evaluate",
    "kfold_accuracy",
    "pair_features",
    "train_probe",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "TaskDataset",
    "load_task",
    "make_synthetic_order_task",
    "ParseTree",
    "TreeParseError",
    "parse_bracketed",
]
