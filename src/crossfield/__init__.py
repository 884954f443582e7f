"""crossfield: exact algebra and numeric holonomy for crossing-type vector fields.

The package computes with germs of singular vector fields of the shape
x d/dx + (linear z-part) + (higher-order z-terms) through a fixed truncation
degree: exact normal forms with a certified conjugating automorphism,
resonance enumeration and the no-transverse-negative-resonance decision,
low-dimension classification tables, centralizer bases, and numeric holonomy
of the x-axis separatrix with conjugacy checking.
"""

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
