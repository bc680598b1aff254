"""Exception types shared across the toolkit."""


class MahaknnError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(MahaknnError, ValueError):
    """An input violates a documented precondition."""


class RankDeficiencyError(MahaknnError):
    """Correspondence geometry is too degenerate for a unique rotation."""


class SingularCovarianceError(MahaknnError):
    """Covariance is singular and no regularizer was supplied."""


class LinearAlgebraError(MahaknnError):
    """A numpy linear-algebra routine failed, such as an SVD that did not converge."""


class NoCorrespondenceError(MahaknnError):
    """Matching produced an empty correspondence set."""


class CloudParseError(MahaknnError):
    """A point-cloud file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")
