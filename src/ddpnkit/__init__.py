"""Heteroscedastic count regression with the Double Poisson distribution."""

from ddpnkit.distributions import (
    PredictiveBatch,
    double_poisson,
    poisson,
    neg_binomial,
    gaussian,
    mixture,
    dp_normalizer,
    dist_pmf,
    dist_cdf,
    dist_moments,
    dist_mode,
    dist_quantile,
    dist_sample,
    predictive_summary,
)
from ddpnkit.losses import (
    AttenuationParts,
    LossSpec,
    attenuation_decompose,
    baseline_nll,
    ddpn_beta_nll,
    ddpn_grads,
    ddpn_nll,
)
from ddpnkit.moments import MomentGrid, mdf_epsilon, moments_grid
from ddpnkit.network import (
    MLPConfig,
    MLPWeights,
    SplitIndices,
    TrainConfig,
    TrainReport,
    cosine_lr,
    forward,
    forward_batch,
    init_mlp,
    load_checkpoint,
    train,
)
from ddpnkit.ensemble import (
    Ensemble,
    MemberHeads,
    UncertaintyDecomposition,
    decompose_variance,
    load_ensemble,
    member_heads,
    mixture_moments,
    predictive_batch,
    variance_scores,
)
from ddpnkit.metrics import EvalRecord, OODScores, crps, evaluate, mae, median_precision, ood_curve_metrics
from ddpnkit.ood import OODProtocolConfig, OODReport, run_ood_eval
from ddpnkit.datagen import (
    SyntheticDataset,
    gen_beta_study,
    gen_misspec_nb,
    gen_misspec_poisson,
    gen_sine_conflation,
    split_indices,
)

__version__ = "0.1.0"
