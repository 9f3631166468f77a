"""Online example reweighting for biased training sets.

Each SGD step scores the current batch by how well every example's gradient
aligns with the gradient of a small trusted validation set, rectifies and
normalizes the scores into weights, and applies one weighted update. The
package bundles the weighting routes, classic baselines, dataset bias
generators, a training harness, and an empirical verification suite for the
convergence properties of the underlying update rule.
"""

from .data import (
    Dataset,
    ImbalanceSpec,
    NoiseSpec,
    corrupt,
    filter_remap,
    load_idx,
    locate_mnist,
    make_imbalanced_pair,
    random_split,
    split_clean_validation,
    write_idx_labels,
)
from .errors import ConfigError, DimensionError, IdxParseError, NonFiniteError
from .nn import (
    ACTIVATIONS,
    Batch,
    ForwardCache,
    MLPModel,
    PerExampleGrads,
    backward_per_example,
    dot_with_each,
    forward,
    sgd_step,
    weighted_gradient,
)
from .reweight import (
    hard_mining_select,
    meta_grad_closed_form,
    meta_grad_lookahead,
    proportion_weights,
    random_weights,
    rectify_normalize,
    resample_indices,
)
from .theory import (
    DescentEntry,
    DescentRun,
    RateRow,
    RegularityEstimate,
    estimate_grad_bound,
    estimate_regularity,
    estimate_smoothness,
    rate_report,
    run_descent_verification,
    safe_step_size,
    validation_objective,
)
from .trainer import STRATEGIES, MetricsRecord, TrainConfig, TrainResult, evaluate, train

__version__ = "0.1.0"
