"""agf-lab: additive Gamma functions from mirror recurrences.

Exact P-recursive sequence evaluation, connection-constant extraction by
extrapolation, explicit evaluation of the order-2 additive Gamma
functions f and g in the complex plane, functional-equation and
arithmetic-duality verification, the integer slope decision procedure,
and exact generating-function ODE certificates.
"""

from .agf import (
    AGFSpec,
    DomainError,
    RegularityClass,
    classify_regularity,
    f_eval,
    f_spec,
    g_eval,
    g_spec,
    gamma_spec,
    growth_probe,
)
from .complexfn import (
    DOUBLE,
    PoleError,
    PrecisionConfig,
    extended,
    gamma,
    hyp1f1,
    log_gamma,
    lower_incomplete_gamma,
)
from .connection import (
    F_SHELL,
    G_SHELL,
    GAMMA_SHELL,
    AsymptoticShell,
    NonConvergence,
    SlopeKind,
    estimate_connection_constant,
    slope_ratio,
)
from .exact import duality_form_e, duality_form_pi
from .holonomic import (
    CoefficientPole,
    PRecurrence,
    exact_series,
    gamma_recurrence,
    iter_sequence,
    mirror_e,
    mirror_pi,
    parse_precurrence,
)

__version__ = "0.1.0"
