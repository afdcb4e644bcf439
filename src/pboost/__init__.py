"""Boosting ensembles for two-class imbalanced learning.

The package implements progressive boosting over disjoint negative-class
partitions, the classic resampling boosting baselines it is compared with,
imbalance-aware metrics (F-beta, G-mean, expected cost, PR curves),
synthetic and KEEL data handling, and an experiment runner.
"""

from .boosting import (
    BoostedEnsemble,
    ComplexityReport,
    EnsembleMember,
    FBetaLoss,
    IterationLog,
    WeightedError,
    alpha_from_loss,
    complexity_report,
    pboost,
    predict_majority_labels,
    predict_scores,
    run_boosting,
    update_weights,
)
from .data import (
    Dataset,
    deal_folds,
    normalize_weights,
    subsample_to_skew,
)
from .datagen import SynthConfig, gen_synthetic, make_setting, split_design_test
from .experiment import ExperimentConfig, run_experiment
from .keel import parse_csv, parse_keel
from .metrics import (
    ConfusionCounts,
    PrCurve,
    expected_cost,
    f_beta,
    g_mean,
    pr_curve_and_aupr,
    select_threshold_max_fbeta,
    weighted_confusion,
)
from .rng import RngStream
from .sampling import (
    KMeansResult,
    Partitioning,
    dunn_index,
    kmeans,
    partition_apriori,
    partition_cus,
    partition_ruswr,
    random_balance,
    rus,
    smote,
)
from .svm import (
    LearnerConfig,
    SvmModel,
    rbf_kappa_heuristic,
    train_svm,
    weighted_resample,
)

__version__ = "0.1.0"
