"""Heteroscedastic count regression with the Double Poisson distribution.

The public names below are loaded with their submodule on first use (PEP
562), so ``import ddpnkit`` loads no submodule and a CLI command loads only
the modules it runs.
"""

import importlib

_EXPORTS = {
    "distributions": (
        "PredictiveBatch", "UncertaintyDecomposition", "double_poisson", "poisson",
        "neg_binomial", "gaussian", "mixture", "decompose_variance", "dp_normalizer",
        "predictive_summary",
    ),
    "losses": (
        "AttenuationParts", "LossSpec", "attenuation_decompose", "ddpn_grads", "ddpn_nll",
        "head_nll",
    ),
    "moments": ("MomentGrid", "mdf_epsilon", "moments_grid"),
    "network": (
        "MLPConfig", "MLPWeights", "TrainConfig", "TrainReport", "cosine_lr", "forward_batch",
        "init_mlp", "load_checkpoint", "train",
    ),
    "ensemble": (
        "Ensemble", "MemberHeads", "load_ensemble", "member_heads",
    ),
    "metrics": (
        "EvalRecord", "OODScores", "evaluate", "median_precision", "ood_curve_metrics",
    ),
    "ood": ("OODProtocolConfig", "OODReport", "run_ood_eval"),
    "datagen": (
        "SplitIndices", "SyntheticDataset", "gen_beta_study", "gen_misspec_nb",
        "gen_misspec_poisson", "gen_sine_conflation", "split_indices",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
