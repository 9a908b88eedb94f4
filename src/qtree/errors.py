"""Typed errors shared across the package.

Each error class corresponds to one failure mode named in the public
contracts, so callers (and the CLI exit-code mapping) can react without
string matching.
"""


class QtreeError(Exception):
    """Base class for package-specific errors."""


class InvalidParameterError(QtreeError, ValueError):
    """A constructor or operation received an out-of-range parameter."""


class SizeLimitError(QtreeError):
    """Requested problem size exceeds a configured limit."""


class NoParentsError(QtreeError):
    """Structural quantities are undefined on trees without parent nodes."""


class IncompletePotentialError(QtreeError):
    """A custom potential table lacks an entry for a functionality present in the graph."""


class UnsupportedExactModeError(QtreeError):
    """Exact rational arithmetic cannot represent the Hamiltonian entries."""


class DegenerateAverageError(QtreeError):
    """A functionality average makes a bound's denominator vanish."""


class OutOfDomainError(QtreeError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class GeneratorLayoutError(QtreeError):
    """The installed NumPy keeps a generator's state in a memory layout qtree does not write."""
