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

import bisect
import copy
import math
import reprlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from numbers import Real
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

from ._blas import blas_scope
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
]

SPHERE_NORM_TOL = 1e-12
SYMMETRY_RTOL = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)
# entries per block of _schoenberg_matrices: five working arrays of 128 KiB
# each, the dots (summed coordinate by coordinate, with no 3-D temporary),
# three recurrence buffers and one product, plus one accumulator per kernel
# assembled; for one or two kernels they stay in a 1-2 MiB per-core L2 cache
_BLOCK_ENTRIES = 1 << 14


def _number(value, key: str, array: bool = False):
    """A JSON number as a float; with ``array``, JSON numbers nested in lists
    as a new float ndarray of any shape (:func:`_array` checks the shape).

    ``bool``, ``str`` and ``null`` are not numbers, although ``float()`` and
    numpy read all three.  The leaf types are tested as one set, so a long
    list costs no Python call per entry.  A numeric ndarray can hold none of
    the three, so its entries are not scanned.
    """
    numeric = isinstance(value, np.ndarray) and value.dtype.kind in "iuf"
    leaves = value if numeric else np.array(value, dtype=object)
    types = () if numeric else set(map(type, leaves.flat))
    if bool in types or not all(issubclass(t, Real) for t in types) or (leaves.ndim and not array):
        what = "an array of JSON numbers" if array else "a JSON number"
        raise ContractError(f"{key} must be {what}, not {reprlib.repr(value)}")
    try:
        return leaves.astype(float) if array else float(value)
    except OverflowError:
        raise ContractError(f"{key} is too large for a float") from None


def _array(value, key: str, shape: tuple) -> np.ndarray:
    """JSON numbers nested in lists as a new float ndarray of ``shape``, where
    ``None`` (``*`` in errors) marks an axis of any length."""
    a = _number(value, key, array=True)
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        raise ContractError(f"{key} must have shape {str(shape).replace('None', '*')}, not {a.shape}")
    return a


def _integer(value, key: str, least: int) -> int:
    """A count >= ``least`` as an int; a float must be integral (16.0 is 16, 16.5 an error)."""
    if not _number(value, key).is_integer():
        raise ContractError(f"{key} must be an integer, not {value!r}")
    value = int(value)
    if value < least:
        raise ContractError(f"{key} must be >= {least}, not {value}")
    return value


def _counts(value, key: str) -> tuple[int, ...]:
    """A nonempty, strictly increasing list of counts >= 1 as a tuple of ints."""
    if _number(value, key, array=True).ndim != 1 or len(value) == 0:
        raise ContractError(f"{key} must be a nonempty list of counts, not {reprlib.repr(value)}")
    counts = tuple(_integer(n, key, 1) for n in value)
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ContractError(f"{key} must be strictly increasing counts >= 1, not {counts}")
    return counts


def _pair(value, key: str) -> tuple[float, float]:
    """Exactly two JSON numbers as a tuple of floats."""
    return tuple(_array(value, key, (2,)).tolist())


class _JsonObject(dict):
    """A JSON object whose missing key raises :class:`ContractError` naming it, in library calls as in the CLI."""

    __slots__ = ()

    def __missing__(self, key):
        raise ContractError(f"missing key {key!r}")


def _json_object(obj, what: str, key: str | None = None) -> dict:
    """``obj`` as a shallow :class:`_JsonObject` copy, once it is a JSON object (a dict) holding
    ``key`` when one is given; every JSON reader reads its keys through this copy."""
    if not (isinstance(obj, dict) and (key is None or key in obj)):
        holding = "" if key is None else f" with the {key!r} key"
        raise ContractError(f"{what} must be a JSON object{holding}, not {reprlib.repr(obj)}")
    return _JsonObject(obj)


@dataclass(frozen=True)
class Geometry:
    """Domain of a design: Euclidean space R^dim or the sphere S^{dim-1} in R^dim."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("euclidean", "sphere"):
            raise ContractError(f"unknown geometry kind {self.kind!r}")
        # the smallest sphere, S^1, lies in R^2
        object.__setattr__(self, "dim", _integer(self.dim, "dim", 2 if self.kind == "sphere" else 1))


def _points_array(points, geometry: Geometry) -> np.ndarray:
    """Validated read-only ``(n, dim)`` copy of ``points`` on ``geometry``.

    Each row is one point; on a 1-D geometry a flat sequence of scalars is
    also accepted.  Rows of another length, or of unequal lengths, raise
    :class:`ContractError`, as do non-finite coordinates and spherical
    points off the unit sphere.
    """
    coords = _number(points, "points", array=True)
    if coords.ndim == 1 and geometry.dim == 1:
        coords = coords[:, None]
    coords = _array(coords, "points", (None, geometry.dim))
    if len(coords) == 0:
        raise ContractError("design must contain at least one point")
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

    @staticmethod
    def interval(values: Sequence[float]) -> "Design":
        """Design of scalar points on the real line."""
        return Design(values, Geometry("euclidean", 1))

    @staticmethod
    def on_sphere(coords: np.ndarray) -> "Design":
        """Design from an (n, d) array of unit vectors."""
        coords = _array(coords, "coords", (None, None))
        return Design(coords, Geometry("sphere", coords.shape[1]))

    def to_json(self) -> dict:
        return {
            "geometry": {"kind": self.geometry.kind, "dim": self.geometry.dim},
            "points": self.coords.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "Design":
        """Load from :meth:`to_json`'s form; a non-object or a missing key raises :class:`ContractError`."""
        obj = _json_object(obj, "design")
        geom = _json_object(obj["geometry"], "geometry")
        return Design(obj["points"], Geometry(geom["kind"], geom["dim"]))


# ---------------------------------------------------------------------------
# special functions for spherical kernels
# ---------------------------------------------------------------------------


def _sphere_degree(d, k, key: str = "d") -> tuple[int, int]:
    """The counts ``(d, k)``: a sphere S^{d-1} with d >= 3, named ``key`` in errors, and a degree k >= 0."""
    return _integer(d, key, 3), _integer(k, "degree", 0)


def harmonic_dimension(d: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^{d-1}.

    Computed as ``C(k+d-1, d-1) - C(k+d-3, d-1)`` with the convention
    ``C(m, j) = 0`` for ``m < j``; equals ``2k+1`` when ``d = 3``.
    """
    d, k = _sphere_degree(d, k)
    return math.comb(k + d - 1, d - 1) - math.comb(k + d - 3, d - 1)


def harmonic_dimensions(d: int, max_degree: int) -> np.ndarray:
    """Harmonic dimensions for degrees 0..max_degree, increasing; one past a float raises ContractError.

    All degrees are formed at once by one exact binomial recurrence, on int64
    while it holds every partial product and on Python ints past that.
    """
    d, last = _sphere_degree(d, max_degree)
    # h is increasing: test the last degree, and bisect for the first one past a float
    if harmonic_dimension(d, last) > _FLOAT_MAX:
        k = bisect.bisect_right(range(last + 1), _FLOAT_MAX, key=lambda k: harmonic_dimension(d, k))
        raise ContractError(f"harmonic dimension of degree {k} on S^{d - 1} (d = {d}) exceeds a float")
    exact = np.int64 if math.comb(last + d - 1, d - 1) * (last + d) < 2**63 else object
    # c = C(m, d-1) for m = d-3 .. last+d-1 by c = c * (m - (d-1) + i) // i,
    # i = 1..d-1: after step i, c is C(m - (d-1) + i, i), exact in either dtype
    top = np.arange(-2, last + 1, dtype=exact)
    c = np.ones_like(top)
    for i in range(1, d):
        top += 1
        c *= top
        c //= i
    # h(k) = C(k+d-1, d-1) - C(k+d-3, d-1), increasing in k
    return (c[2:] - c[:-2]).astype(float)


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
    d, k = _sphere_degree(d, k)
    x = _number(x, "x", array=True)
    if not np.all(np.abs(x) <= 1.0 + 1e-12):
        raise ContractError("x must lie in [-1, 1]")
    g = next(islice(_gegenbauer_terms(d, np.clip(x, -1.0, 1.0)), k, None))
    return float(g) if x.ndim == 0 else g


def _gegenbauer_terms(d: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Yield G_0(x), G_1(x), ... by the normalized three-term recurrence.

    The recurrence steps in place in three buffers of the shape of ``x``, so
    each yielded array is overwritten two steps later: a caller must use or
    copy it before advancing the iterator twice.  :func:`_schoenberg_matrices`
    reads each term into every kernel's sum before it advances, so one
    recurrence serves all the kernels of a group.  Step k computes
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


@dataclass(frozen=True, eq=False)
class SchoenbergSpectrum:
    """Nonnegative degree-wise coefficients of an isotropic kernel on S^{d-1}.

    The sequence is an explicit truncation: entries beyond the stored list are
    treated as zero.
    """

    sphere_dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sphere_dim", _sphere_degree(self.sphere_dim, 0, "sphere_dim")[0])
        coeffs = _array(self.coeffs, "coeffs", (None,))
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if len(self.coeffs) == 0:
            raise ContractError("coeffs must hold at least one coefficient")
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

        The result is read-only, and no code writes to its memory later:
        :func:`gram` takes it over as the ``entries`` of its
        :class:`GramMatrix` without copying.  It may be a view of a matrix
        the kernel keeps (see :class:`SchoenbergKernel`).
        """


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, once it is made read-only."""
    a.flags.writeable = False
    return a


def _sigma(sigma) -> float:
    """``sigma`` read as a JSON number, once it is checked to be > 0 with a finite square."""
    sigma = _number(sigma, "sigma")
    # the square every kernel path uses; it overflows to inf, where a float power raises
    if not (sigma > 0 and math.isfinite(sigma * sigma)):
        raise ContractError("sigma must be finite and strictly positive, with a finite square")
    return sigma


@dataclass(frozen=True)
class BrownianKernel(CovarianceKernel):
    """Brownian-motion covariance ``sigma^2 * min(s, t)`` for scalar s, t >= 0."""

    sigma: float
    geometry = Geometry("euclidean", 1)

    def __post_init__(self):
        object.__setattr__(self, "sigma", _sigma(self.sigma))

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        t = _half_line(coords[:, 0])
        return _read_only(self.sigma * self.sigma * np.minimum.outer(t, t))


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
    geometry = Geometry("euclidean", 1)

    def __post_init__(self):
        object.__setattr__(self, "sigma", _sigma(self.sigma))
        object.__setattr__(self, "beta", _number(self.beta, "beta"))
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ContractError("beta must be finite and strictly positive")

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        t = coords[:, 0]
        dist = np.abs(t[:, None] - t[None, :])
        return _read_only(self.sigma * self.sigma * np.exp(-self.beta * dist))


@dataclass(frozen=True)
class SchoenbergKernel(CovarianceKernel):
    """Isotropic kernel on S^{d-1} with an explicit coefficient truncation.

    ``R(s, t) = sum_k a(k) h(k) G_k(<s, t>)``; the rank of the kernel equals
    ``sum_{a(k)>0} h(k)``, so Gram matrices on more points than that are
    singular by construction.

    The kernel keeps its last assembled matrix alive while it lives and
    serves a prefix of that design as a read-only view (see :meth:`matrix`).
    """

    spectrum: SchoenbergSpectrum

    @property
    def geometry(self) -> Geometry:
        return Geometry("sphere", self.spectrum.sphere_dim)

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        """Kernel matrix, the one-kernel case of :func:`_schoenberg_matrices`.

        The matrix is assembled in cache-sized upper-triangle row blocks and
        mirrored.  Every entry passes through the same elementwise operations
        as in one sum over the whole dot matrix, so the result is bitwise
        equal to it and exactly symmetric.

        The kernel keeps the last matrix it assembled, with a copy of its
        coordinates, for as long as the kernel lives.  When ``coords`` are,
        byte for byte (so -0.0 is not 0.0), the leading rows of those
        coordinates, the result is the leading block of that matrix as a
        read-only view, and nothing is computed: an entry depends only on its
        two points, so the block is bitwise the matrix a fresh assembly would
        give.  Any other call assembles and replaces the kept pair.  The kept
        pair may also come from an assembly of several kernels at once, as
        the dense J trace makes for its two kernels.
        """
        return _schoenberg_matrices((self,), coords)[0]

    def _served(self, coords: np.ndarray) -> np.ndarray | None:
        """The leading block of the kept matrix, if ``coords`` are the leading rows of the kept coordinates."""
        kept = getattr(self, "_kept", None)
        if kept is None:
            return None
        head, whole = kept
        n = coords.shape[0]
        # for rows of one dtype and length, equal bytes also mean n <= len(head)
        rows_alike = coords.dtype == head.dtype and coords.shape[1:] == head.shape[1:]
        if rows_alike and coords.tobytes() == head[:n].tobytes():
            return whole[:n, :n]
        return None


def _schoenberg_matrices(kernels: Sequence[SchoenbergKernel], coords: np.ndarray) -> list[np.ndarray]:
    """The matrices of ``kernels`` on ``coords``, those not served by a kept matrix assembled in one pass.

    The kernels must share one sphere dimension.  A kernel whose kept matrix
    serves ``coords`` (see :meth:`SchoenbergKernel.matrix`) is skipped, and
    a kernel passed twice is assembled once.  The others are assembled
    together: rows ``[i0, i1)`` against columns ``[i0, n)`` form one block
    of about ``_BLOCK_ENTRIES`` entries, whose dot products and Gegenbauer
    recurrence are computed once and read by every kernel.  Each kernel has
    its own accumulator, to which it adds ``a(k) h(k) G_k`` left to right,
    stopping at its own truncation, so each matrix is bitwise the one the
    kernel would assemble alone.  Each block is written to the upper
    triangle and its transpose to the lower; each result becomes its
    kernel's kept pair and is returned itself, not as a view.
    """
    # by identity: kernels holding one spectrum object are equal, yet each keeps its own matrix
    matrices = {id(kernel): kernel._served(coords) for kernel in kernels}
    todo = list({id(kernel): kernel for kernel in kernels if matrices[id(kernel)] is None}.values())
    if todo:
        (d,) = {kernel.spectrum.sphere_dim for kernel in todo}
        weights = [kernel.spectrum.coeffs * kernel.spectrum.harmonic_dims for kernel in todo]
        last = max(map(len, weights))
        n = coords.shape[0]
        outs = [np.empty((n, n)) for _ in todo]
        i0 = 0
        while i0 < n:
            i1 = min(n, i0 + max(1, _BLOCK_ENTRIES // (n - i0)))
            # coordinate by coordinate with no BLAS: (i, j) and (j, i) are one sum
            dots = np.multiply.outer(coords[i0:i1, 0], coords[i0:, 0])
            for c in range(1, coords.shape[1]):
                dots += np.multiply.outer(coords[i0:i1, c], coords[i0:, c])
            np.clip(dots, -1.0, 1.0, out=dots)
            terms = _gegenbauer_terms(d, dots)
            g = next(terms)
            blocks = [w[0] * g for w in weights]
            term = np.empty_like(dots)
            for k, g in zip(range(1, last), terms):
                for w, block in zip(weights, blocks):
                    if k < len(w):
                        block += np.multiply(w[k], g, out=term)
            for out, block in zip(outs, blocks):
                out[i0:i1, i0:] = block
                out[i0:, i0:i1] = block.T
            i0 = i1
        head = np.array(coords)
        for kernel, out in zip(todo, outs):
            matrices[id(kernel)] = _read_only(out)
            # one attribute, so a reader never pairs one call's coordinates with another's matrix
            object.__setattr__(kernel, "_kept", (head, out))
    return [matrices[id(kernel)] for kernel in kernels]


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """SPD kernel matrix with the lower Cholesky factor and log-determinant it computes when built.

    ``GramMatrix(x)`` checks and factors the square float ndarray ``x`` as
    :func:`gram_from_matrix` does, but takes ``x`` over read-only, uncopied.
    ``chol`` is LAPACK ``dpotrf`` of the upper triangle of ``x``; solves are BLAS ``dtrsm`` on it.
    """

    entries: np.ndarray
    chol: np.ndarray = field(init=False)
    log_det: float = field(init=False)

    def __post_init__(self):
        a = self.entries
        if not (isinstance(a, np.ndarray) and a.dtype == float and a.ndim == 2 and a.shape[0] == a.shape[1]):
            raise ContractError("Gram entries must form a square float matrix")
        _require_symmetric(a, "Gram entries")
        # a.T of a C-order a is a Fortran-order view, which f2py copies without transposing
        with blas_scope():
            c, info = dpotrf(a.T, lower=1, clean=1, overwrite_a=0)
        if info != 0:
            raise SingularGramError(pivot=int(info) - 1)
        a.flags.writeable = c.flags.writeable = False
        object.__setattr__(self, "chol", c)
        object.__setattr__(self, "log_det", 2.0 * float(np.sum(np.log(np.diag(c)))))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L x = b`` against the cached lower factor; a non-finite ``b`` raises :class:`ContractError`."""
        if not np.isfinite(b).all():
            raise ContractError("right-hand side must be finite")
        # no blas_scope: a solve here gives the same bits on one thread and on two,
        # so a scope would only add a lock and four ctypes calls to every call
        return dtrsm(1.0, self.chol, b, lower=1)


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
    return GramMatrix(_array(entries, "entries", (None, None)))


def _require_symmetric(a: np.ndarray, what: str) -> None:
    """Raise ContractError unless ``a`` is finite and symmetric to ``SYMMETRY_RTOL * max(1, max|a|)``."""
    # max|a| with no n x n temporary; np.max, np.min and then max() all propagate NaN
    largest = float(max(np.max(a), -np.min(a)))
    if not math.isfinite(largest):
        raise ContractError(f"{what} must be finite")
    # max |a - a.T| over pairs of 128-square tiles, which stay in cache where
    # the strided a.T does not; |x - y| == |y - x|, so the upper pairs suffice
    tiles = [slice(i, i + 128) for i in range(0, len(a), 128)]
    asymmetry = max(float(np.max(np.abs(a[r, c] - a[c, r].T))) for k, r in enumerate(tiles) for c in tiles[k:])
    if asymmetry > SYMMETRY_RTOL * max(1.0, largest):
        raise ContractError(f"{what} must be symmetric")


def gram(kernel: CovarianceKernel, design: Design) -> GramMatrix:
    """Assemble and factor the kernel matrix of ``kernel`` over ``design``.

    The read-only array from ``kernel.matrix`` becomes ``entries`` uncopied;
    for a :class:`SchoenbergKernel` and a prefix of its last design it is a
    view of the matrix the kernel keeps.  Fails hard (``SingularGramError``)
    when it is not numerically positive definite.
    """
    require_geometry(kernel, design)
    return GramMatrix(np.asarray(kernel.matrix(design.coords), dtype=float))


def require_geometry(kernel: CovarianceKernel | type, design: Design) -> None:
    """Raise :class:`ContractError` unless ``design`` lies on the geometry of a kernel or kernel class."""
    if design.geometry != kernel.geometry:
        name = getattr(kernel, "__name__", type(kernel).__name__)
        raise ContractError(f"{name} acts on {kernel.geometry}, not {design.geometry}")


def eval_kernel(kernel: CovarianceKernel, s, t) -> float:
    """Evaluate ``R(s, t)`` at two coordinate vectors (or two scalars on the line).

    The points pass the same checks as design points on the kernel's
    geometry (they may coincide), and the value is the off-diagonal entry of
    the kernel matrix on ``(s, t)``, read off a shallow copy of the kernel: a
    kept :class:`SchoenbergKernel` matrix serves a prefix pair and is never replaced.
    """
    return float(copy.copy(kernel).matrix(_points_array((s, t), kernel.geometry))[0, 1])


# ---------------------------------------------------------------------------
# JSON descriptions
# ---------------------------------------------------------------------------


def kernel_from_json(obj: dict) -> CovarianceKernel:
    """Build a kernel from its JSON description.

    Recognized forms::

        {"variant": "brownian", "sigma": 2.0}
        {"variant": "exponential", "sigma": 1.0, "beta": 1.0}
        {"variant": "schoenberg", "d": 3, "coeffs": [1.0, 0.5, ...]}

    A non-object, or one missing a key of its form, raises :class:`ContractError` (:func:`_json_object`).
    """
    obj = _json_object(obj, "kernel description", "variant")
    if obj["variant"] == "brownian":
        return BrownianKernel(sigma=obj["sigma"])
    if obj["variant"] == "exponential":
        return ExponentialKernel(sigma=obj["sigma"], beta=obj["beta"])
    if obj["variant"] == "schoenberg":
        return SchoenbergKernel(SchoenbergSpectrum(obj["d"], obj["coeffs"]))
    raise ContractError(f"unknown kernel variant {obj['variant']!r}")

