"""Exception hierarchy.

Every domain error raised by this package derives from :class:`InfoCostError`,
so callers (including the CLI) can distinguish malformed-input failures from
ordinary Python errors.  Infinite divergence values are *not* errors: they are
returned as ``math.inf``.
"""


class InfoCostError(ValueError):
    """Base class for all errors raised by infocost."""


# --- experiment construction -------------------------------------------------

class RowNotStochastic(InfoCostError):
    """A probability row does not sum to one (beyond tolerance)."""


class NegativeEntry(InfoCostError):
    """A probability matrix contains a negative entry."""


class TooFewStates(InfoCostError):
    """Experiments need at least two states."""


class StateMismatch(InfoCostError):
    """Two experiments (or an experiment and a parameter) disagree on the state count."""


class WeightOutOfRange(InfoCostError):
    """A mixture/dilution weight lies outside the open interval (0, 1)."""


class InvalidState(InfoCostError):
    """A state index is out of range."""


class EqualStates(InfoCostError):
    """A pair restriction needs two distinct states."""


class PriorNotFullSupport(InfoCostError):
    """A prior must be strictly positive and sum to one."""


class InfeasibleFloor(InfoCostError):
    """min_prob * n_signals must stay below 1 for a random experiment."""


# --- divergence parameters ----------------------------------------------------

class LengthMismatch(InfoCostError):
    """Two distributions have different lengths."""


class NotADistribution(InfoCostError):
    """A vector meant to be a probability distribution is not one."""


class TOutOfRange(InfoCostError):
    """A Rényi order must lie in (0, 1)."""


class BadAlpha(InfoCostError):
    """An exponent vector is not a valid non-vertex point of the parameter space."""


class GammaOutOfRange(InfoCostError):
    """gamma must lie in [1/n_states, +inf]."""


class BadPsi(InfoCostError):
    """A direction vector must sum to zero with exactly one coordinate equal to 1."""


class NotBinary(InfoCostError):
    """Operation defined only for two-state experiments."""


# --- cost specifications ------------------------------------------------------

class DimensionMismatch(InfoCostError):
    """A cost specification and an experiment disagree on dimensions."""


class TransformDomain(InfoCostError):
    """Argument fell outside the domain of a cost transform."""


class NoSecondDerivative(InfoCostError):
    """The potential does not expose a second derivative in the binary belief."""


class BadCostSpec(InfoCostError):
    """A cost specification violates its invariants."""


# --- blackwell ------------------------------------------------------------------

class ShapeMismatch(InfoCostError):
    """A garbling kernel does not match the experiment's signal count."""


# --- axioms ---------------------------------------------------------------------

class AxiomNotApplicable(InfoCostError):
    """The requested axiom cannot be checked against this specification."""


class BadAxiomProfile(InfoCostError):
    """A sampling profile is out of range: n_states must be an integer >= 2,
    n_samples >= 1, n_signals in [1, 1/MIN_PROB), and tol finite and >= 0."""


# --- approximation ---------------------------------------------------------------

class NotBinaryState(InfoCostError):
    """The sandwich construction is implemented for binary-state beliefs only."""


class KTooSmall(InfoCostError):
    """Grid resolution must be at least 2."""


class UnboundedExperiment(InfoCostError):
    """The experiment has zero entries, so likelihood ratios are unbounded."""


# --- solver ----------------------------------------------------------------------

class NoRootInBracket(InfoCostError):
    """The first-order condition has no sign change inside the bisection bracket."""


class BadSolveOptions(InfoCostError):
    """A solver option is out of range: starts and max_iter must be integers
    >= 1, and seed an integer >= 0."""
