"""Covariance kernels, evaluation designs, and Gram-matrix assembly.

Three kernel families are provided: Brownian motion ``sigma^2 * min(s, t)``
on the half line, the stationary exponential kernel
``sigma^2 * exp(-beta |s - t|)`` on the line, and isotropic kernels on the
unit sphere ``S^{d-1}`` defined through a truncated Schoenberg coefficient
sequence.  Spherical kernels are evaluated zonally: the degree-k block of
spherical harmonics contributes ``h(k) * G_k(<s, t>)`` where ``h(k)`` is the
harmonic dimension and ``G_k`` the Gegenbauer polynomial normalized to
``G_k(1) = 1`` (addition theorem), so no individual harmonic is ever built.
"""

from __future__ import annotations

import math
import reprlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from numbers import Real
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from .errors import ContractError, SingularGramError

__all__ = [
    "Geometry",
    "Design",
    "SchoenbergSpectrum",
    "CovarianceKernel",
    "BrownianKernel",
    "ExponentialKernel",
    "SchoenbergKernel",
    "GramMatrix",
    "eval_kernel",
    "gram",
    "gram_from_matrix",
    "harmonic_dimension",
    "harmonic_dimensions",
    "gegenbauer_normalized",
    "kernel_from_json",
    "kernel_to_json",
]

SPHERE_NORM_TOL = 1e-12
SYMMETRY_RTOL = 1e-12
# entries per block of SchoenbergKernel.matrix: six working arrays of 128 KiB
# each, which stay in a 1-2 MiB per-core L2 cache
_BLOCK_ENTRIES = 1 << 14


def _number(value, key: str, array: bool = False):
    """A JSON number as a float; with ``array``, JSON numbers nested in lists
    as a float ndarray whose shape the caller checks.

    ``bool``, ``str`` and ``null`` are not numbers, although ``float()`` and
    numpy read all three.  The leaf types are tested as one set, so a long
    list costs no Python call per entry.
    """
    leaves = np.array(value, dtype=object)
    types = set(map(type, leaves.flat))
    if bool in types or not all(issubclass(t, Real) for t in types) or (leaves.ndim and not array):
        what = "an array of JSON numbers" if array else "a JSON number"
        raise ContractError(f"{key} must be {what}, not {reprlib.repr(value)}")
    try:
        return leaves.astype(float) if array else float(value)
    except OverflowError:
        raise ContractError(f"{key} is too large for a float") from None


def _integer(value, key: str) -> int:
    """A count as an int; a float must be integral (16.0 is 16, 16.5 an error)."""
    if not _number(value, key).is_integer():
        raise ContractError(f"{key} must be an integer, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class Geometry:
    """Domain of a design: Euclidean space R^dim or the sphere S^{dim-1} in R^dim."""

    kind: str
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim"))
        if self.kind not in ("euclidean", "sphere"):
            raise ContractError(f"unknown geometry kind {self.kind!r}")
        if self.dim < 1:
            raise ContractError("geometry dimension must be >= 1")
        if self.kind == "sphere" and self.dim < 2:
            raise ContractError("sphere geometry needs ambient dimension >= 2")

    @staticmethod
    def euclidean(dim: int) -> "Geometry":
        return Geometry("euclidean", dim)

    @staticmethod
    def sphere(dim: int) -> "Geometry":
        return Geometry("sphere", dim)


def _points_array(points, geometry: Geometry) -> np.ndarray:
    """Validated read-only ``(n, dim)`` copy of ``points`` on ``geometry``.

    Each row is one point; on a 1-D geometry a flat sequence of scalars is
    also accepted.  Rows of another length, or of unequal lengths, raise
    :class:`ContractError`, as do non-finite coordinates and spherical
    points off the unit sphere.
    """
    try:
        coords = np.array(points, dtype=float)
    except ValueError:
        raise ContractError("design points must all have the same dimension") from None
    if coords.size == 0:
        raise ContractError("design must contain at least one point")
    if coords.ndim == 1 and geometry.dim == 1:
        coords = coords[:, None]
    if coords.ndim != 2 or coords.shape[1] != geometry.dim:
        raise ContractError(f"points must form an (n, {geometry.dim}) array, not {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise ContractError("design points must be finite")
    if geometry.kind == "sphere":
        norms = np.linalg.norm(coords, axis=1)
        if np.max(np.abs(norms - 1.0)) > SPHERE_NORM_TOL:
            raise ContractError("spherical design points must have unit norm")
    coords.flags.writeable = False
    return coords


@dataclass(frozen=True, eq=False)
class Design:
    """Ordered finite set of pairwise-distinct points sharing one geometry.

    ``coords`` is a read-only ``(n, dim)`` array, one row per point.
    Duplicate points are rejected because they make the Gram matrix of any
    strictly positive-definite kernel singular.
    """

    coords: np.ndarray
    geometry: Geometry

    def __post_init__(self):
        coords = _points_array(self.coords, self.geometry)
        # equal rows are adjacent once the rows are sorted lexicographically
        rows = coords[np.lexsort(coords.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ContractError("design points must be pairwise distinct")
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def prefix(self, n: int) -> "Design":
        if not 1 <= n <= len(self):
            raise ContractError("prefix length out of range")
        return Design(self.coords[:n], self.geometry)

    def is_prefix_of(self, other: "Design") -> bool:
        if self.geometry != other.geometry or len(self) > len(other):
            return False
        return bool(np.array_equal(self.coords, other.coords[: len(self)]))

    @staticmethod
    def interval(values: Sequence[float]) -> "Design":
        """Design of scalar points on the real line."""
        return Design(values, Geometry.euclidean(1))

    @staticmethod
    def on_sphere(coords: np.ndarray) -> "Design":
        """Design from an (n, d) array of unit vectors."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2:
            raise ContractError("sphere design expects an (n, d) array")
        return Design(coords, Geometry.sphere(coords.shape[1]))

    def to_json(self) -> dict:
        return {
            "geometry": {"kind": self.geometry.kind, "dim": self.geometry.dim},
            "points": self.coords.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "Design":
        geom = Geometry(obj["geometry"]["kind"], obj["geometry"]["dim"])
        return Design(_number(obj["points"], "points", array=True), geom)


# ---------------------------------------------------------------------------
# special functions for spherical kernels
# ---------------------------------------------------------------------------


def harmonic_dimension(d: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^{d-1}.

    Computed as ``C(k+d-1, d-1) - C(k+d-3, d-1)`` with the convention
    ``C(m, j) = 0`` for ``m < j``; equals ``2k+1`` when ``d = 3``.
    """
    if d < 3:
        raise ContractError("harmonic dimension requires d >= 3")
    if k < 0:
        raise ContractError("degree k must be nonnegative")
    return math.comb(k + d - 1, d - 1) - math.comb(k + d - 3, d - 1)


def harmonic_dimensions(d: int, max_degree: int) -> np.ndarray:
    """Vector of harmonic dimensions for degrees 0..max_degree."""
    return np.array([harmonic_dimension(d, k) for k in range(max_degree + 1)], dtype=float)


def gegenbauer_normalized(k: int, d: int, x) -> float | np.ndarray:
    """Gegenbauer polynomial ``C_k^lambda(x) / C_k^lambda(1)`` with ``lambda = (d-2)/2``.

    Evaluated by the three-term recurrence in already-normalized form,

        G_k(x) = (2 (k+lambda-1) x G_{k-1}(x) - (k-1) G_{k-2}(x)) / (k + 2 lambda - 1),

    which keeps ``G_k(1) = 1`` exact and all values in [-1, 1] on the domain.
    For ``d = 3`` this is the Legendre polynomial of degree k.

    Parameters
    ----------
    k : int
        Polynomial degree, >= 0.
    d : int
        Ambient dimension of the sphere, >= 3.
    x : float or ndarray
        Arguments in [-1, 1] (a slack of 1e-12 is clamped).
    """
    if d < 3:
        raise ContractError("gegenbauer_normalized requires d >= 3")
    if k < 0:
        raise ContractError("degree k must be nonnegative")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.asarray(x, dtype=float)
    if np.max(np.abs(xa)) > 1.0 + 1e-12:
        raise ContractError("Gegenbauer argument must lie in [-1, 1]")
    g = next(islice(_gegenbauer_terms(d, np.clip(xa, -1.0, 1.0)), k, None))
    return float(g) if scalar else g


def _gegenbauer_terms(d: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Yield G_0(x), G_1(x), ... by the normalized three-term recurrence.

    The recurrence steps in place in three buffers of the shape of ``x``, so
    each yielded array is overwritten two steps later: a caller must use or
    copy it before advancing the iterator twice.  Step k computes
    ``((2 (k+lambda-1)) x) G_{k-1} - (k-1) G_{k-2}``, then divides by
    ``k + 2 lambda - 1``, the same operations in the same order for every
    entry.
    """
    lam = (d - 2) / 2.0
    # np.array copies x into an array also when np.clip has made it a scalar
    g_prev, g, g_next = np.ones_like(x), np.array(x), np.empty_like(x)
    yield g_prev
    for k in count(2):
        yield g
        np.multiply(2 * (k + lam - 1), x, out=g_next)
        g_next *= g
        g_prev *= k - 1
        g_next -= g_prev
        g_next /= k + 2 * lam - 1
        g_prev, g, g_next = g, g_next, g_prev


def _zonal_sum(d: int, coeffs: np.ndarray, hdims: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum_k coeffs[k] * h(k) * G_k(x), accumulated left to right in one new array."""
    weights = coeffs * hdims
    terms = _gegenbauer_terms(d, x)
    acc = weights[0] * next(terms)
    term = np.empty_like(acc)
    for w, g in zip(weights[1:], terms):
        acc += np.multiply(w, g, out=term)
    return acc


@dataclass(frozen=True, eq=False)
class SchoenbergSpectrum:
    """Nonnegative degree-wise coefficients of an isotropic kernel on S^{d-1}.

    The sequence is an explicit truncation: entries beyond the stored list are
    treated as zero.  ``tail_term`` reports the magnitude of the last stored
    term ``h(K) * a(K)`` as a truncation diagnostic.
    """

    sphere_dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sphere_dim", _integer(self.sphere_dim, "sphere_dim"))
        if self.sphere_dim < 3:
            raise ContractError("Schoenberg spectrum requires sphere_dim >= 3")
        coeffs = np.array(np.atleast_1d(self.coeffs), dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ContractError("coefficients must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(self.coeffs)):
            raise ContractError("coefficients must be finite")
        if np.any(self.coeffs < 0):
            raise ContractError("coefficients must be nonnegative")

    @property
    def truncation(self) -> int:
        """Largest stored degree K."""
        return len(self.coeffs) - 1

    @cached_property
    def harmonic_dims(self) -> np.ndarray:
        return harmonic_dimensions(self.sphere_dim, self.truncation)

    @property
    def positive_count(self) -> int:
        return int(np.count_nonzero(self.coeffs > 0))

    @property
    def trace_value(self) -> float:
        """Value on the diagonal, sum_k h(k) * a(k)."""
        return float(self.harmonic_dims @ self.coeffs)

    @property
    def tail_term(self) -> float:
        return float(self.harmonic_dims[-1] * self.coeffs[-1])


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class CovarianceKernel(ABC):
    """Symmetric positive-definite covariance kernel on a fixed geometry."""

    @property
    @abstractmethod
    def geometry(self) -> Geometry:
        """The one geometry the kernel acts on."""

    @abstractmethod
    def matrix(self, coords: np.ndarray) -> np.ndarray:
        """Dense kernel matrix over an (n, d) coordinate array of that geometry.

        The result must be a new array: :func:`gram` takes it over as the
        read-only ``entries`` of its :class:`GramMatrix` without copying.
        """


def _require_positive_finite(name: str, value: float) -> None:
    # math.isfinite, not numpy: an ExponentialKernel is built on every
    # likelihood evaluation of a fit
    if not (value > 0 and math.isfinite(value)):
        raise ContractError(f"{name} must be finite and strictly positive")


def _require_sigma(sigma: float) -> None:
    # sigma * sigma overflows to inf where sigma**2 raises OverflowError
    if not (sigma > 0 and math.isfinite(sigma * sigma)):
        raise ContractError("sigma must be finite and strictly positive, with a finite square")


@dataclass(frozen=True)
class BrownianKernel(CovarianceKernel):
    """Brownian-motion covariance ``sigma^2 * min(s, t)`` for scalar s, t >= 0."""

    sigma: float
    geometry = Geometry.euclidean(1)

    def __post_init__(self):
        _require_sigma(self.sigma)

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        t = _half_line(coords[:, 0])
        return self.sigma**2 * np.minimum.outer(t, t)


def _half_line(t: np.ndarray) -> np.ndarray:
    """``t`` itself, once every time in it is checked to be >= 0."""
    if np.any(t < 0):
        raise ContractError("Brownian kernel requires t >= 0")
    return t


@dataclass(frozen=True)
class ExponentialKernel(CovarianceKernel):
    """Stationary exponential covariance ``sigma^2 * exp(-beta |s - t|)`` on the line."""

    sigma: float
    beta: float
    geometry = Geometry.euclidean(1)

    def __post_init__(self):
        _require_sigma(self.sigma)
        _require_positive_finite("beta", self.beta)

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        t = coords[:, 0]
        dist = np.abs(t[:, None] - t[None, :])
        return self.sigma**2 * np.exp(-self.beta * dist)


@dataclass(frozen=True)
class SchoenbergKernel(CovarianceKernel):
    """Isotropic kernel on S^{d-1} with an explicit coefficient truncation.

    ``R(s, t) = sum_k a(k) h(k) G_k(<s, t>)``; the rank of the kernel equals
    ``sum_{a(k)>0} h(k)``, so Gram matrices on more points than that are
    singular by construction.
    """

    spectrum: SchoenbergSpectrum

    @property
    def geometry(self) -> Geometry:
        return Geometry.sphere(self.spectrum.sphere_dim)

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        """Kernel matrix assembled in upper-triangle row blocks and mirrored.

        Rows ``[i0, i1)`` against columns ``[i0, n)`` form one block of about
        ``_BLOCK_ENTRIES`` entries, so the recurrence buffers stay in cache;
        each block is written to the upper triangle and its transpose to the
        lower.  Every entry passes through the same elementwise operations as
        in one sum over the whole dot matrix, so the result is bitwise equal
        to it and exactly symmetric.
        """
        spectrum = self.spectrum
        n = coords.shape[0]
        out = np.empty((n, n))
        i0 = 0
        while i0 < n:
            i1 = min(n, i0 + max(1, _BLOCK_ENTRIES // (n - i0)))
            # broadcasting keeps the per-entry reduction order fixed, so the
            # dots of (i, j) and (j, i) are equal regardless of BLAS threading
            dots = (coords[i0:i1, None, :] * coords[None, i0:, :]).sum(axis=-1)
            np.clip(dots, -1.0, 1.0, out=dots)
            block = _zonal_sum(spectrum.sphere_dim, spectrum.coeffs, spectrum.harmonic_dims, dots)
            out[i0:i1, i0:] = block
            out[i0:, i0:i1] = block.T
            i0 = i1
        return out


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """SPD kernel matrix with its cached lower Cholesky factor and log-determinant."""

    entries: np.ndarray
    chol: np.ndarray
    log_det: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L x = b`` against the cached lower factor."""
        return solve_triangular(self.chol, b, lower=True)


def gram_from_matrix(entries: np.ndarray) -> GramMatrix:
    """Factor an explicit symmetric matrix into a :class:`GramMatrix`.

    ``entries`` is copied once, so later changes to the caller's array do not
    reach the result; the returned ``entries`` and ``chol`` are read-only.

    Parameters
    ----------
    entries : ndarray
        Square matrix of finite entries, symmetric to 1e-12 relative.

    Raises
    ------
    SingularGramError
        If the matrix is not numerically positive definite; the error
        carries the zero-based index of the failing pivot.
    """
    return _factor(np.array(entries, dtype=float))


def _require_symmetric(a: np.ndarray, what: str) -> None:
    """Raise ContractError unless ``a`` is finite and symmetric to ``SYMMETRY_RTOL * max(1, max|a|)``."""
    # np.max propagates NaN, and a comparison with NaN is False
    largest = float(np.max(np.abs(a)))
    if not math.isfinite(largest):
        raise ContractError(f"{what} must be finite")
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * max(1.0, largest):
        raise ContractError(f"{what} must be symmetric")


def _factor(a: np.ndarray) -> GramMatrix:
    """Check and factor the float matrix ``a``; the result takes ``a`` over as ``entries``."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError("Gram entries must form a square matrix")
    _require_symmetric(a, "Gram entries")
    c, info = dpotrf(a, lower=1, clean=1, overwrite_a=0)
    if info != 0:
        raise SingularGramError(pivot=int(info) - 1)
    log_det = 2.0 * float(np.sum(np.log(np.diag(c))))
    a.flags.writeable = False
    c.flags.writeable = False
    return GramMatrix(entries=a, chol=c, log_det=log_det)


def gram(kernel: CovarianceKernel, design: Design) -> GramMatrix:
    """Assemble and factor the kernel matrix of ``kernel`` over ``design``.

    The new array from ``kernel.matrix`` becomes ``entries`` uncopied.  Fails
    hard (``SingularGramError``) when it is not numerically positive definite.
    """
    require_geometry(kernel, design)
    return _factor(np.asarray(kernel.matrix(design.coords), dtype=float))


def require_geometry(kernel: CovarianceKernel, design: Design) -> None:
    """Raise :class:`ContractError` unless ``design`` lies on the kernel's geometry."""
    if design.geometry != kernel.geometry:
        name = type(kernel).__name__
        raise ContractError(f"{name} acts on {kernel.geometry}, not {design.geometry}")


def eval_kernel(kernel: CovarianceKernel, s, t) -> float:
    """Evaluate ``R(s, t)`` at two coordinate vectors (or two scalars on the line).

    The points pass the same checks as design points on the kernel's
    geometry (they may coincide), and the value is the off-diagonal entry of
    the kernel matrix on ``(s, t)``.
    """
    return float(kernel.matrix(_points_array((s, t), kernel.geometry))[0, 1])


# ---------------------------------------------------------------------------
# JSON descriptions
# ---------------------------------------------------------------------------


def kernel_from_json(obj: dict) -> CovarianceKernel:
    """Build a kernel from its JSON description.

    Recognized forms::

        {"variant": "brownian", "sigma": 2.0}
        {"variant": "exponential", "sigma": 1.0, "beta": 1.0}
        {"variant": "schoenberg", "d": 3, "coeffs": [1.0, 0.5, ...]}
    """
    try:
        variant = obj["variant"]
    except (TypeError, KeyError):
        raise ContractError("kernel description must be an object with a 'variant' key")
    if variant == "brownian":
        return BrownianKernel(sigma=_number(obj["sigma"], "sigma"))
    if variant == "exponential":
        return ExponentialKernel(sigma=_number(obj["sigma"], "sigma"), beta=_number(obj["beta"], "beta"))
    if variant == "schoenberg":
        coeffs = _number(obj["coeffs"], "coeffs", array=True)
        return SchoenbergKernel(SchoenbergSpectrum(_integer(obj["d"], "d"), coeffs))
    raise ContractError(f"unknown kernel variant {variant!r}")


def kernel_to_json(kernel: CovarianceKernel) -> dict:
    if isinstance(kernel, BrownianKernel):
        return {"variant": "brownian", "sigma": kernel.sigma}
    if isinstance(kernel, ExponentialKernel):
        return {"variant": "exponential", "sigma": kernel.sigma, "beta": kernel.beta}
    if isinstance(kernel, SchoenbergKernel):
        return {
            "variant": "schoenberg",
            "d": kernel.spectrum.sphere_dim,
            "coeffs": kernel.spectrum.coeffs.tolist(),
        }
    raise ContractError(f"cannot serialize kernel of type {type(kernel).__name__}")
