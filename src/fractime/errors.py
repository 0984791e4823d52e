"""Exception hierarchy shared by all fractime modules."""


class FractimeError(Exception):
    """Base class for all errors raised by this package."""


class GridError(FractimeError):
    """Invalid time grid, or operands living on incompatible grids."""


class OutOfRangeError(FractimeError):
    """Argument outside the validated evaluation domain."""


class PrecisionLossError(FractimeError):
    """A series evaluation could not reach the target accuracy."""


class UnsupportedOperatorError(FractimeError):
    """Differential-operator term with a derivative power we do not embed."""


class DivergenceError(FractimeError):
    """A time stepper produced non-finite or exploding state."""


class DegenerateSampleError(FractimeError):
    """A Monte Carlo sample is degenerate (e.g. all counts zero)."""


class ConfigError(FractimeError):
    """Invalid experiment configuration value."""
