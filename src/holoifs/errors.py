"""Exception types raised by the holoifs package.

Every failure mode that callers are expected to handle gets its own class so
that numerical certificates and CLI exit codes can dispatch on the type alone.
"""


class HoloifsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HoloifsError):
    """A point or disk leaves the region where a map is defined."""


class SingularDerivative(HoloifsError):
    """Derivative magnitude too small to invert reliably."""


class NotInImage(HoloifsError):
    """Requested preimage does not exist under the selected branch."""


class BudgetExceeded(HoloifsError):
    """An enumeration would exceed the configured word or point budget."""


class SeparationFailure(HoloifsError):
    """A computation requires a valid separation certificate and none holds."""


class NoConvergence(HoloifsError):
    """Fixed-point iteration failed to converge within the iteration cap."""


class OutsideAttractor(HoloifsError):
    """No inverse branch claims a point."""


class DegenerateDerivative(HoloifsError):
    """A derivative floor collapsed to zero."""


class AddressFailure(HoloifsError):
    """The inverse-orbit address walk could not be continued."""


class CriterionEmpty(HoloifsError):
    """The depth-selection criterion in germ construction matched no index."""


class NoCoincidence(HoloifsError):
    """No pair of coinciding germs found within the iterate budget."""


class PrefixViolation(HoloifsError):
    """Coinciding germs whose address words are not prefix-compatible."""


class GermBoundsError(HoloifsError):
    """A constructed germ violates its derivative or image-sandwich bounds."""


class NotAFixedPoint(HoloifsError):
    """Series expansion requested at a point that the map does not fix."""


class InvalidMultiplier(HoloifsError):
    """Linearization requires a multiplier with modulus strictly in (0, 1)."""


class NonInvertible(HoloifsError):
    """Series reversion requires a nonzero linear coefficient."""


class OutsideDomain(HoloifsError):
    """A point lies outside the hyperbolic domain under consideration."""


class OnSlit(HoloifsError):
    """A point lies on the removed slit of a slit plane."""


class NotReal(HoloifsError):
    """A map expected to commute with complex conjugation does not."""


class ConfigError(HoloifsError):
    """A system configuration file is malformed."""
