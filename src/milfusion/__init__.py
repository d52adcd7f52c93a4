"""Multimodal multiple-instance bag classifier.

Attention pooling over per-instance embeddings, dual supervised attention on
the cine branch, gated fusion of the two modality representations, and a
curriculum pseudo-labeling loop for semi-supervised training — validated on
synthetic bag datasets with planted, recoverable class signal.
"""

from .autodiff import Tape, Tensor, backward
from .data import (
    Bag,
    Dataset,
    Instance,
    SyntheticConfig,
    generate_synthetic,
    iterate_split,
    load,
    load_hidden_truth,
    save,
)
from .encoders import Encoder, EncoderConfig, encode, init_weights
from .errors import (
    BagSkipError,
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    DomainError,
    FormatError,
    MetricError,
    MilError,
    NumericError,
    UsageError,
)
from .metrics import (
    PredictionSet,
    PredRow,
    aupr,
    auroc,
    balanced_accuracy,
    bootstrap_ci,
    compute_report,
    confusion_matrix,
)
from .model import (
    ForwardOutput,
    MMILModel,
    ModelConfig,
    forward,
    fuse,
    init_model,
    load_model,
    save_model,
    total_loss,
)
from .pooling import (
    AttentionModule,
    PooledResult,
    attention_pool,
    relevance_renormalize,
    sa_loss,
    supervised_attention_pool,
)
from .training import (
    PseudoLabelRecord,
    TrainConfig,
    pseudo_label,
    run_curriculum,
    select_confident,
    train_supervised,
)

__version__ = "0.1.0"
