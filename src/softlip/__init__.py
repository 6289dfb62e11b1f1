"""Softmax Lipschitz analysis toolkit.

Numerically stable softmax primitives, induced matrix p-norm brackets,
sharp-constant witnesses, an empirical Lipschitz estimator for score
matrices, and a contractive fixed-point solver for entropy-regularized
zero-sum matrix games.
"""

from softlip.core import (
    Logits,
    SimplexPoint,
    SoftmaxJacobian,
    Temperature,
    boundary_point,
    jacobian,
    log_sum_exp,
    m_of_s,
    softmax,
)
from softlip.estimator import (
    EstimateReport,
    PerturbationSpec,
    empirical_lp,
    epsilon_sweep,
    order_sweep,
    sample_perturbation,
)
from softlip.games import (
    DsfpConfig,
    DsfpResult,
    MatrixGame,
    contraction_factor,
    dsfp_map,
    dsfp_solve,
    regularized_value,
    shannon_entropy,
    tau_min,
)
from softlip.lipschitz import (
    LimitSequenceStep,
    ScsaParams,
    WitnessPair,
    cocoercivity_check,
    global_bound,
    local_lipschitz,
    scsa_bound,
    scsa_bound_unrefined,
    witness_attained,
    witness_example_pair,
    witness_limit_sequence,
)
from softlip.opnorm import (
    NormEstimate,
    NormOrder,
    OpNormError,
    interpolation_bound,
    opnorm_inf,
    opnorm_one,
    opnorm_p_estimate,
    opnorm_two,
    riesz_thorin_bound,
    vector_norm,
)

__version__ = "0.1.0"

__all__ = [
    "Logits",
    "Temperature",
    "SimplexPoint",
    "SoftmaxJacobian",
    "softmax",
    "log_sum_exp",
    "jacobian",
    "m_of_s",
    "boundary_point",
    "NormOrder",
    "NormEstimate",
    "OpNormError",
    "vector_norm",
    "opnorm_one",
    "opnorm_inf",
    "opnorm_two",
    "opnorm_p_estimate",
    "interpolation_bound",
    "riesz_thorin_bound",
    "WitnessPair",
    "LimitSequenceStep",
    "ScsaParams",
    "local_lipschitz",
    "global_bound",
    "witness_attained",
    "witness_limit_sequence",
    "witness_example_pair",
    "cocoercivity_check",
    "scsa_bound",
    "scsa_bound_unrefined",
    "PerturbationSpec",
    "EstimateReport",
    "sample_perturbation",
    "empirical_lp",
    "epsilon_sweep",
    "order_sweep",
    "MatrixGame",
    "DsfpConfig",
    "DsfpResult",
    "dsfp_map",
    "dsfp_solve",
    "tau_min",
    "contraction_factor",
    "regularized_value",
    "shannon_entropy",
    "__version__",
]
