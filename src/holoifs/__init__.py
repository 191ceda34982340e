"""Numerical toolkit for finite holomorphic iterated function systems.

The package computes certified epsilon-nets of attractors, separation
certificates, inverse-branch dynamics, local symmetry germs between two
systems, Koenigs linearizations with functional roots, and the hyperbolic
geometry utilities these constructions rest on.
"""

from . import errors
from .errors import (
    AddressFailure,
    BudgetExceeded,
    ConfigError,
    CriterionEmpty,
    DegenerateDerivative,
    DomainError,
    GermBoundsError,
    HoloifsError,
    InvalidMultiplier,
    NoCoincidence,
    NoConvergence,
    NonInvertible,
    NotAFixedPoint,
    NotInImage,
    NotReal,
    OnSlit,
    OutsideAttractor,
    OutsideDomain,
    PrefixViolation,
    SeparationFailure,
    SingularDerivative,
)
from .maps import (
    Affine,
    Composite,
    Disk,
    HoloMap,
    IfsSystem,
    SqrtBranch,
    Word,
    compose_maps,
    compose_word,
)

__version__ = "0.1.0"
