"""Session-level data valuation for item-to-item recommenders.

Train a co-occurrence recommender and a deterministic embedding recommender
on clickstream sessions, measure decision quality via a hypothetic conversion
rate, and price individual sessions by exact leave-one-out sensitivity
analysis, including impact-lifecycle and learning-curve studies.
"""

from .corpus import (
    Catalog,
    ClickEvent,
    Dataset,
    EvalLog,
    EvalSession,
    Session,
    heterogeneity_ratio,
    load_dataset,
    slice_days,
)
from .cor import CoocMatrix, all_top_k, build_matrix
from .embed import EmbeddingModel, Hyperparams, Vocabulary, all_top_k_similar, train
from .kpi import feature_scale, snp
from .sensitivity import (
    Constellation,
    CorEngine,
    HarnessConfig,
    OutputDiff,
    SensitivityRecord,
    VrEngine,
    classify,
    diff_topk,
    histogram,
    iter_loo,
    relative_cr_change,
    run_loo,
    session_value,
    verify_stability,
)
from .synthgen import GenConfig, GroundTruth, PlantKind, generate, plant_toxic_session

__version__ = "0.1.0"
