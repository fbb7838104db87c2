"""Certified tail sums, trigonometric interpolation on 2n-1 equidistant
nodes, best L1 / uniform approximation, and the deviation bounds that tie
them together for convolution classes of smooth periodic functions."""

from .bestapprox import ApproxResult, best_l1, best_uniform, oracle_best_l1
from .bounds import (
    Interval,
    PoissonBounds,
    Thm3Brackets,
    d0_bound,
    dq_bound,
    duality_sup,
    duality_sup_batch,
    gamma_phase,
    poisson_bounds,
    sine_factor,
    thm1_rhs,
    thm1_rhs_modified,
    thm2_sup_bracket,
    thm3_bracket,
)
from .errors import (
    DivisionDomain,
    HypothesisUnmet,
    NonMonotone,
    PsikernError,
    SlowConvergence,
    SolverStall,
    TrendViolation,
    UnknownRatioMonotonicity,
    ZeroMultiplier,
)
from .harness import (
    BoundReport,
    ClassicalReport,
    ExperimentConfig,
    SharpnessRow,
    classical_lebesgue_check,
    sharpness_probe,
    verify_lebesgue,
)
from .interp import (
    NodeSet,
    deviation,
    grid_deviation,
    interpolate,
    lebesgue_fn,
    lebesgue_residual,
    node_sum_eval,
    nodes,
)
from .psi import (
    AnalyticSech,
    CertifiedSum,
    Characteristics,
    ClassFlags,
    EvenOdd,
    GenPoisson,
    Geometric,
    Lemma1Result,
    LogLogPower,
    ExpLogSquared,
    ExpTOverLog,
    Neumann,
    PolyharmonicPoisson,
    Power,
    PsiFamily,
    Tabulated,
    alpha_lambda,
    characteristics,
    class_check,
    double_tail,
    eval,
    lemma1_check,
    limit_ratio,
    psi_from_dict,
    psi_to_dict,
    tail_sum,
    truncation_order,
    weighted_tail,
)
from .trig import (
    KernelSpec,
    TrigPoly,
    convolve_quadrature,
    dirichlet,
    kernel_eval,
    psi_derivative,
    psi_integral,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
