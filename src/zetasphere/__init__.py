"""zetasphere: numerical verification of the zeta/Gamma identity battery,
critical-line zero scanning with argument-principle cross-counts, divisor
algebra and the rational extension of the completed zeta on the Riemann
sphere, covering/retraction maps, and the strip-collapsing flow."""

__version__ = "0.1.0"

from .errors import (
    BoundaryPoint,
    ConvergenceError,
    DegreeNotZero,
    DomainError,
    InsufficientOrdinates,
    InvalidSpherePoint,
    NoSignChange,
    PhaseJumpError,
    PoleError,
    RealnessViolation,
    ZetasphereError,
)
from .specfun import digamma, gamma, gamma_abs_critical, gamma_abs_unit, loggamma, psi_pair
from .zeta import (
    completed_zeta,
    eta_eval,
    even_limit_probe,
    even_zeta_rational,
    f_factor,
    functional_rhs,
    laurent_eval,
    stieltjes_gamma,
    zeta_eval,
)
from .modulus import ModulusBreakdown, criterion_ratio, f_abs_closed, f_abs_dx, gamma_abs_dx
from .zeros import Rectangle, ZeroRecord, count_zeros_rectangle, refine_zero, scan_zeros, z_real
from .sphere import (
    INFINITY,
    CoverPoint,
    SpherePoint,
    accumulation_gaps,
    covering_a,
    covering_b,
    cr_residual,
    sector_retraction,
    stereo_lift,
    stereo_project,
)
from .mero import (
    BranchData,
    Divisor,
    RationalMap,
    build_zeta_hat,
    critical_points,
    derivative,
    divisor_add,
    divisor_degree,
    divisor_leq,
    divisor_negate,
    evaluate,
    partial_fractions,
    preimages,
    principal_divisor,
    rational_from_divisor,
    riemann_hurwitz_check,
    riemann_roch_dims,
)
from .flow import FlowParams, continuity_probe, flow_map, flow_velocity, transport_divisor
