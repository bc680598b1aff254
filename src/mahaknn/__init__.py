"""Point-cloud registration toolkit built around Mahalanobis k-NN graphs."""

__version__ = "0.1.0"
