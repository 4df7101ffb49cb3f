"""Equivalence vs. orthogonality diagnostics for centered Gaussian processes.

The library decides and diagnoses whether two centered Gaussian process
distributions are equivalent or orthogonal through three complementary
routes: finite-design divergence traces, reproducing-kernel Hilbert space
norms, and spectral criterion sums on spheres and atomic spectra.  A
maximum-likelihood module runs the covariance-parameter experiments that
illustrate the estimation consequences of the dichotomy.

The package re-exports each module's ``__all__``; ``errors`` declares
none, so all of its exception classes.
"""

__version__ = "0.1.0"

from .errors import *
from .kernels import *
from .designs import *
from .rkhs import *
from .divergence import *
from .spectral import *
from .sampler import *
from .mle import *
