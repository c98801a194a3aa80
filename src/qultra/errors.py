"""Exception types shared across the library."""


class QSeriesError(Exception):
    """Base class for all qultra errors."""


class DomainError(QSeriesError):
    """An input is outside the domain an operation supports (bad base,
    non-finite input, a non-integer index, weight parameters outside the
    positivity window, ...).  A value the operation forms that leaves the
    double range is a NonConvergence, not a DomainError."""


class RegionError(QSeriesError):
    """The requested evaluation point lies outside the convergence
    region of the series and no continuation is available.  Evaluation
    refuses rather than summing a divergent series."""


class PoleError(QSeriesError):
    """A q-shifted-factorial denominator factor vanishes.  The message
    identifies the offending factor."""


class NonConvergence(QSeriesError):
    """The term budget was exhausted, a divergence guard tripped, or a
    value the operation forms left the double range (qcore.power and
    qcore.finite), before the requested tolerance was reached."""


class SingularPoint(QSeriesError):
    """The divided-difference operator was applied at z close to +-1,
    where its denominator vanishes."""


class ConfigError(QSeriesError):
    """Malformed configuration input (CLI flags or config file)."""
