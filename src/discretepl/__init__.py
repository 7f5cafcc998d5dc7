"""Exact discrete couplings and the midpoint inequality family on Z and {0,1}^n."""

from .coupling import (
    Coupling,
    binary_lattice_couplings,
    is_staircase,
    monotone_coupling,
    pushforward,
)
from .displacement import (
    DisplacementReport,
    MidpointPair,
    chain_diagnostics,
    displacement_gap,
    floor_ceil_iffs,
    level_sets,
    m_minus,
    m_plus,
    midpoint_measures,
)
from .fourfunctions import (
    CubeFn,
    check_4ft_additive,
    check_4ft_conclusion,
    check_4ft_hypothesis,
    functional_power,
    log_mean_exp,
    restrict_to_binary_cube,
)
from .measures import (
    Pmf,
    RealFn,
    counting_entropy,
    delta,
    dual_gap,
    from_weights,
    gibbs_optimizer,
    log_laplace,
    pmf,
    relative_entropy,
    uniform_on,
)
from .transport import (
    LogWeights,
    closed_form_cost,
    cost_mu,
    curvature_cost,
    gaussian_weights,
    geometric_weights,
    ot_cost,
    transport_entropy_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
