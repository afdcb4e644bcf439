"""Exception types shared across the package.

One type per outcome something tells apart: `cli.main` maps PBoostError and
DataError to exit codes, `boosting._boost` catches SingleClassInput, and a
`pboost run` cell names the rest in failures.csv. An argument no cell can
pass raises ValueError.
"""


class PBoostError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PBoostError):
    """The input data cannot be read or used; `pboost run` exits 3."""


class AllZeroWeights(PBoostError):
    """A weight vector contains no positive mass."""


class InsufficientNegatives(PBoostError):
    """Not enough negative samples to reach the requested skew."""


class UndefinedMetric(PBoostError):
    """A metric's denominator is zero for the given counts."""


class DegenerateData(PBoostError):
    """Input data collapses to a single point (zero spread)."""


class SingleClassInput(PBoostError):
    """A training set contains only one class."""


class TooFewNegatives(PBoostError):
    """Too few negative samples to form a single partition."""


class TooManyClusters(PBoostError):
    """k exceeds the number of distinct rows."""
