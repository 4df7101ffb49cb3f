"""Seeded simulation of centered Gaussian vectors with a given Gram matrix.

Replicates are rows of ``Z @ L'`` where L is the cached lower Cholesky factor
and Z holds i.i.d. standard normals from a seeded PCG64 generator (NumPy's
default; its normal transform is fixed per NumPy release).  The product
runs on one OpenBLAS thread, as every factor does (``_blas``), so identical
(gram, m, seed) inputs, and a seed with a kernel and a design, reproduce
batches bit for bit on one platform and release at any OpenBLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import blas_scope
from ._csvio import write_csv
from .errors import ContractError
from .kernels import GramMatrix, _array, _integer

__all__ = [
    "SampleBatch",
    "sample_paths",
    "empirical_covariance",
    "derive_seed",
    "batch_to_csv",
]


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """m replicates of a centered Gaussian vector on a design."""

    samples: np.ndarray
    seed: int

    def __post_init__(self):
        samples = _array(self.samples, "samples", (None, None))
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))

    @property
    def replicates(self) -> int:
        return self.samples.shape[0]


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic sub-seed from a base seed and an integer path."""
    ss = np.random.SeedSequence([_integer(base, "seed", 0), *(_integer(p, "seed part", 0) for p in parts)])
    return int(ss.generate_state(1)[0])


def sample_paths(g: GramMatrix, m: int, seed: int) -> SampleBatch:
    """Draw m independent centered Gaussian vectors with covariance ``g``.

    Each replicate is ``L z`` with fresh standard normals z, so scaling the
    Gram by c^2 scales the batch by c exactly under the same seed.
    """
    m, seed = _integer(m, "replicate count", 1), _integer(seed, "seed", 0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal((m, g.n))
    with blas_scope():
        samples = z @ g.chol.T
    return SampleBatch(samples=samples, seed=seed)


def empirical_covariance(batch: SampleBatch) -> np.ndarray:
    """Second-moment matrix ``(1/m) sum_i y_i y_i'`` (no mean subtraction)."""
    if batch.replicates < 2:
        raise ContractError("empirical covariance needs at least 2 replicates")
    y = batch.samples
    with blas_scope():
        return (y.T @ y) / batch.replicates


def batch_to_csv(batch: SampleBatch, path) -> None:
    """Write the batch, one replicate per row, no header."""
    write_csv(path, None, batch.samples.T)
