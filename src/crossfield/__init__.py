"""crossfield: exact algebra and numeric holonomy for crossing-type vector fields.

The package computes with germs of singular vector fields of the shape
x d/dx + (linear z-part) + (higher-order z-terms) through a fixed truncation
degree: exact normal forms with a certified conjugating automorphism,
resonance enumeration and the no-transverse-negative-resonance decision,
low-dimension classification tables, centralizer bases, and numeric holonomy
of the x-axis separatrix with conjugacy checking.

Importing the package loads the shared layers coeff, series and lie.  The
others (resonance, normalform, holonomy, parsing, cli) load when imported,
or on first access as attributes of the package: ``crossfield.holonomy``.
"""

import importlib

from .coeff import CoefficientSyntaxError, GaussianRational, LaurentPoly
from .series import (
    DimensionMismatchError,
    MonomialIndex,
    TransverseSeries,
    iter_l_indices,
)
from .lie import (
    Automorphism,
    CertificateError,
    NotNilpotentError,
    NotTangentToIdentityError,
    SingularLinearPartError,
    VectorField,
    exp,
    exp_ad,
    exp_decomposition,
    log,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "LaurentPoly",
    "TransverseSeries",
    "MonomialIndex",
    "VectorField",
    "Automorphism",
    "exp",
    "log",
    "exp_ad",
    "exp_decomposition",
    "iter_l_indices",
    "CertificateError",
    "CoefficientSyntaxError",
    "DimensionMismatchError",
    "NotNilpotentError",
    "NotTangentToIdentityError",
    "SingularLinearPartError",
    "__version__",
]

_LAZY_LAYERS = frozenset({"resonance", "normalform", "holonomy", "parsing", "cli"})


def __getattr__(name):
    """crossfield.<layer> of a layer not imported yet: imports it."""
    if name in _LAZY_LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
