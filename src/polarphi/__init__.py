"""polarphi: the normalized polar pairing functional of convex bodies.

For a symmetric convex body K with polar K deg, the library evaluates

    phi(K) = (1 / (|K| |K deg|)) Int_K Int_{K deg} <x, y>^2 dx dy

by three independent routes -- a closed-form recursion for p-balls, exact
1-D moments for bodies of revolution, and Monte Carlo with an exact sampler
for every body in the grammar -- and verifies the decomposition theorem,
monotonicity chain, and volume-product inequalities behind it numerically.

The Monte Carlo samplers and the profile evaluators are vectorized over
samples and quadrature nodes with numpy.
"""

from .bodies import (
    POLAR,
    PRIMAL,
    Interval,
    LinearImage,
    PBall,
    Product,
    Revolution,
    Simplex,
    gauge_batch,
    make_linear_image,
    membership,
    membership_batch,
    parse_body,
    polar_body,
    serialize_body,
)
from .errors import DomainError, VerificationError
from .exact import (
    PHI_INTERVAL,
    ExponentPair,
    IsotropyReport,
    PhiBreakdown,
    dual_exponent,
    f_factor,
    inequality_report,
    pball_moment2,
    pball_volume,
    phi_combine,
    phi_pball,
    phi_via_moments,
)
from .harness import (
    GridReport,
    F_eval,
    G_eval,
    H_eval,
    default_p_grid,
    f1_eval,
    finite_difference_report,
    monotonicity_report,
    scan_p_argmax,
    xsq_trigamma_convexity,
)
from .revolution import (
    RevolutionProfile,
    RevolutionReport,
    decomposition_report,
    parse_profile,
    phi_revolution,
    polar_profile,
    profile_integrals,
    profile_to_json,
)
from .rng import parse_seed
from .sampler import MCEstimate, estimate_phi, sample_body, sample_pball
from .specfun import (
    digamma,
    log_beta,
    log_gamma,
    pentagamma,
    polygamma,
    tetragamma,
    trigamma,
)

__version__ = "0.1.0"

__all__ = [
    "PRIMAL",
    "POLAR",
    "Interval",
    "PBall",
    "Product",
    "Revolution",
    "LinearImage",
    "Simplex",
    "gauge_batch",
    "make_linear_image",
    "membership",
    "membership_batch",
    "parse_body",
    "polar_body",
    "serialize_body",
    "DomainError",
    "VerificationError",
    "PHI_INTERVAL",
    "ExponentPair",
    "PhiBreakdown",
    "IsotropyReport",
    "dual_exponent",
    "f_factor",
    "inequality_report",
    "pball_moment2",
    "pball_volume",
    "phi_combine",
    "phi_pball",
    "phi_via_moments",
    "GridReport",
    "F_eval",
    "G_eval",
    "H_eval",
    "default_p_grid",
    "f1_eval",
    "finite_difference_report",
    "monotonicity_report",
    "scan_p_argmax",
    "xsq_trigamma_convexity",
    "RevolutionProfile",
    "RevolutionReport",
    "decomposition_report",
    "parse_profile",
    "phi_revolution",
    "polar_profile",
    "profile_integrals",
    "profile_to_json",
    "parse_seed",
    "MCEstimate",
    "estimate_phi",
    "sample_body",
    "sample_pball",
    "digamma",
    "log_beta",
    "log_gamma",
    "pentagamma",
    "polygamma",
    "tetragamma",
    "trigamma",
    "__version__",
]
