from .encoder import FeatureEncoder, complete  # noqa: F401
from .evaluate import (  # noqa: F401
    NewsClassifier,
    SplitSpec,
    cross_validate,
    predict_profiles,
    rank_split_experiment,
    stratified_folds,
    train_classifier,
)
from .metrics import MetricsReport, auc_score, compute_metrics  # noqa: F401
from .models import MODEL_KINDS, make_model  # noqa: F401
