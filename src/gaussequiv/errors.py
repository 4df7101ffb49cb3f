"""Exception types shared across the library."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class SingularGramError(RuntimeError):
    """Cholesky factorization failed: the kernel matrix is not numerically SPD.

    Attributes
    ----------
    pivot : int
        Zero-based index of the diagonal entry at which factorization broke down.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (failing pivot {pivot})")


class AtomMismatchError(RuntimeError):
    """Spectral supports differ, so the shared-atom prerequisite fails.

    For Gaussian dichotomy purposes a support mismatch signals orthogonality
    outright, before any summation is attempted.
    """


class OptimizationFailedError(RuntimeError):
    """Every start of a fit hit the singularity penalty, or the CLI lost over 20% of its fits."""
