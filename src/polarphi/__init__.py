"""polarphi: the normalized polar pairing functional of convex bodies.

For a symmetric convex body K with polar K deg, the library evaluates

    phi(K) = (1 / (|K| |K deg|)) Int_K Int_{K deg} <x, y>^2 dx dy

by three independent routes -- a closed-form recursion for p-balls, exact
1-D moments for bodies of revolution, and Monte Carlo with an exact sampler
for every body in the grammar -- and verifies the decomposition theorem,
monotonicity chain, and volume-product inequalities behind it numerically.

The Monte Carlo samplers and the profile evaluators are vectorized over
samples and quadrature nodes with numpy.  The package imports each
submodule on first use of one of its names, so the closed-form layers
(exact, specfun) load without numpy.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the submodule that defines it
_EXPORTS = {
    "bodies": (
        "PRIMAL", "POLAR", "Interval", "PBall", "Product", "Revolution", "LinearImage",
        "Simplex", "gauge_batch", "make_linear_image", "membership", "membership_batch",
        "parse_body", "polar_body", "serialize_body",
    ),
    "errors": ("DomainError", "VerificationError"),
    "exact": (
        "PHI_INTERVAL", "ExponentPair", "PhiBreakdown", "IsotropyReport", "dual_exponent",
        "f_factor", "inequality_report", "pball_moment2", "pball_volume", "phi_combine",
        "phi_pball", "phi_via_moments",
    ),
    "harness": (
        "GridReport", "F_eval", "G_eval", "H_eval", "default_p_grid", "f1_eval",
        "finite_difference_report", "monotonicity_report", "scan_p_argmax",
        "xsq_trigamma_convexity",
    ),
    "revolution": (
        "RevolutionProfile", "RevolutionReport", "decomposition_report", "parse_profile",
        "phi_revolution", "polar_profile", "profile_integrals", "profile_to_json",
    ),
    "rng": ("parse_seed",),
    "sampler": ("MCEstimate", "estimate_phi", "sample_body", "sample_pball"),
    "specfun": (
        "digamma", "log_beta", "log_gamma", "pentagamma", "tetragamma", "trigamma",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    """Import the submodule that defines `name` and bind the name here (PEP 562)."""
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
