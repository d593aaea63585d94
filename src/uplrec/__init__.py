"""Unbiased pairwise learning from implicit feedback.

Implements the low-variance unbiased pairwise estimator (upl) next to its
pointwise (wmf, relmf) and pairwise (bpr, ubpr and clipped ubpr)
baselines, a semi-synthetic MNAR data pipeline, ranking evaluation with
cohort slicing, and an oracle that verifies estimator unbiasedness and the
variance ordering through closed-form exact moments and Monte Carlo.
"""

__version__ = "0.1.0"

from .datasets import (
    ExplicitRatings,
    ImplicitDataset,
    generate_semi_synthetic,
    load_triplets,
    rating_to_relevance,
    split_validation,
)
from .evaluation import MetricReport, evaluate, one_tailed_t_test
from .factor_model import FactorModel, TrainConfig, init_model
from .losses import LossSpec, clip_term, pair_weights, pointwise_loss, sigmoid_pair_loss, \
    ubpr_pair_weight, upl_pair_weight
from .oracle import SyntheticWorld, estimator_reports
from .propensity import PropensityTable, estimate_click_propensity, posterior_exposure
from .trainer import AdamState, TrainRun, train, train_key
