"""Exception types shared across the package."""


class PBoostError(Exception):
    """Base class for all errors raised by this package."""


class AllZeroWeights(PBoostError):
    """A weight vector contains no positive mass."""


class LengthMismatch(PBoostError):
    """Aligned sequences have different lengths."""


class TooFewSamples(PBoostError):
    """A class has too few samples for the requested split."""


class InsufficientNegatives(PBoostError):
    """Not enough negative samples to reach the requested skew."""


class UndefinedMetric(PBoostError):
    """A metric's denominator is zero for the given counts."""


class NoPositives(PBoostError):
    """A data or evaluation set contains no positive labels."""


class DegenerateData(PBoostError):
    """Input data collapses to a single point (zero spread)."""


class SingleClassInput(PBoostError):
    """A training set contains only one class."""


class DimensionMismatch(PBoostError):
    """A probe's feature dimension does not match the model."""


class SubsetTooLarge(PBoostError):
    """Requested more distinct elements than available."""


class TooFewPositives(PBoostError):
    """Too few positive samples for synthetic up-sampling."""


class TooFewNegatives(PBoostError):
    """Too few negative samples to form a single partition."""


class TooManyClusters(PBoostError):
    """k exceeds the number of distinct rows."""


class SingleCluster(PBoostError):
    """A cluster-validity index needs at least two clusters."""


class MissingGroupIds(PBoostError):
    """An a-priori partitioning was requested without group ids."""


class MalformedHeader(PBoostError):
    """A KEEL or CSV file's layout could not be parsed, or it holds no rows."""


class NonNumericAttribute(PBoostError):
    """A KEEL or CSV feature value is not a finite number."""


class MoreThanTwoClasses(PBoostError):
    """A dataset declares more than two class tokens."""


class EmptyEnsemble(PBoostError):
    """Prediction was requested from an ensemble with no members."""


class UnknownSetting(PBoostError):
    """An unrecognised synthetic-data setting name."""


class MissingResults(PBoostError):
    """A report was requested from a directory without result files."""
