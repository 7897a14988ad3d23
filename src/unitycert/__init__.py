"""Exact partition-of-unity identities and max-entropy positivity certificates.

Chebyshev/Pell identities on [-1,1] tied to the arcsine equilibrium measure,
Bernstein/Handelman identities on [0,1] tied to Lebesgue measure, and their
simplex extensions, together with dual Newton solvers whose optima recover
the corresponding moment vectors.

Each submodule runs when it is first used: ``import unitycert`` runs none of
them, and ``unitycert.maxent`` or ``from unitycert import maxent`` binds a
module whose body runs when an attribute is first read.  A name of
``__all__`` runs the module that defines it.  So no exact verifier runs the
solver module (``maxent``), and Pell's identity and the partitions of unity
run neither ``measures`` nor ``momatrix``; only the CHEBY2 variant and the
simplex equilibrium, which sum reciprocal Christoffel functions, run those
two.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each submodule, then the names the package exports from it.
_EXPORTS = {
    "cli": (),
    "identities": (
        "IdentityReport", "UnityVariant", "constant_reduce", "verify_pell",
        "verify_simplex_equilibrium", "verify_simplex_unity", "verify_unity_01",
        "verify_unity_interval",
    ),
    "maxent": (
        "DualFunctional", "HandelmanCertificate", "NoInteriorCertificateError",
        "PutinarCertificate", "SolverReport", "solve_handelman", "solve_putinar",
        "solve_simplex", "verify_certificate", "verify_certificate_exact",
    ),
    "measures": (
        "ARCSINE", "ARCSINE_G", "LEBESGUE01", "MeasureId", "MomentFunctional",
        "SimplexNormalization", "bernstein_envelope", "beta_integral", "functional_for",
        "quadrature_oracle", "simplex_equilibrium", "simplex_uniform",
    ),
    "momatrix": (
        "ChristoffelForm", "MomentMatrix", "NotPositiveDefiniteError", "christoffel_eval",
        "christoffel_form", "christoffel_polynomial", "invert_exact", "moment_matrix",
    ),
    "polycore": (
        "ChebKind", "MPoly", "Rational", "UPoly", "bernstein", "cheb",
        "cheb_orthonormal_square", "cheb_table", "monomials_upto", "poly_eval",
        "simplex_generator_power",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def _lazy_import(name: str):
    """The module ``name``, its body run on first attribute access (the
    ``importlib.util.LazyLoader`` recipe); ModuleNotFoundError now if absent."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def __getattr__(name: str):
    """A submodule, not yet run, or an exported name, which runs its module;
    either is then bound here, so this runs once per name."""
    if name in _EXPORTS:
        value = _lazy_import(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(__getattr__(_ORIGIN[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_ORIGIN))
