"""Generators for nested evaluation designs.

All sequences here are prefix-stable: the design of size m is literally the
first m points of the design of size n > m, which is what the nested
divergence traces require.
"""

from __future__ import annotations

from itertools import count, islice
from math import isqrt
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .errors import ContractError
from .kernels import Design, _counts, _integer, _pair

__all__ = [
    "dyadic_interval_points",
    "dyadic_interval_designs",
    "equispaced_interval_design",
    "sphere_sequence",
    "fibonacci_sphere_designs",
    "is_prefix_nested",
]

_GOLDEN_FRAC = (np.sqrt(5.0) - 1.0) / 2.0


def _radical_inverse(i: np.ndarray, base: int) -> np.ndarray:
    """Radical inverse in ``base`` of each nonnegative integer in ``i``."""
    i = np.asarray(i, dtype=np.int64)
    x, f = np.zeros(i.shape), 1.0 / base
    while np.any(i):
        i, digit = np.divmod(i, base)
        x += digit * f
        f /= base
    return x


def _halton(n: int, d: int) -> np.ndarray:
    """Points 1..n (origin skipped) of the unscrambled Halton sequence in d >= 1 prime bases, (n, d)."""
    primes = islice((k for k in count(2) if all(k % j for j in range(2, isqrt(k) + 1))), d)
    i = np.arange(1, n + 1)
    # column-major like scipy's: numpy sums a row norm (d > 8) in an order set by the layout
    return np.array([_radical_inverse(i, base) for base in primes]).T


def _interval(domain) -> tuple[float, float]:
    """The endpoints (a, b) of a ``domain`` of exactly two finite numbers a < b."""
    a, b = _pair(domain, "domain")
    if not -np.inf < a < b < np.inf:
        raise ContractError(f"domain must be two finite numbers [a, b] with a < b, not {domain!r}")
    return a, b


def dyadic_interval_points(max_size: int, domain: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """Prefix-ordered dyadic grid of (a, b], left endpoint excluded.

    The first 2^l points enumerate the grid {a + (b-a) i / 2^l : i = 1..2^l},
    each level appending the new odd multiples.  Excluding the left endpoint
    keeps Brownian Gram matrices nonsingular.
    """
    max_size = _integer(max_size, "max_size", 2)
    if max_size & (max_size - 1):
        raise ContractError(f"max_size must be a power of two, not {max_size}")
    a, b = _interval(domain)
    levels = (np.arange(1, 2**l, 2) * 0.5**l for l in range(2, max_size.bit_length()))
    return a + (b - a) * np.concatenate([[0.5, 1.0], *levels])


def dyadic_interval_designs(max_size: int, domain: tuple[float, float] = (0.0, 1.0)) -> list[Design]:
    """Nested designs of sizes 2, 4, ..., max_size on a dyadic grid."""
    pts = dyadic_interval_points(max_size, domain)
    sizes = [2**l for l in range(1, len(pts).bit_length())]
    return [Design.interval(pts[:n]) for n in sizes]


def equispaced_interval_design(n: int, domain: tuple[float, float] = (0.0, 1.0)) -> Design:
    """n equispaced points spanning [a, b], endpoints included."""
    n = _integer(n, "n", 1)
    a, b = _interval(domain)
    return Design.interval(np.linspace(a, b, n))


def sphere_sequence(n: int, sphere_dim: int = 3) -> np.ndarray:
    """First n points of a quasi-uniform, prefix-stable sequence on S^{d-1}.

    For d = 3 the sequence is an incremental Fibonacci lattice: base-2
    stratified heights combined with golden-angle azimuth increments.  For
    other d, a Halton sequence is pushed through the inverse normal CDF and
    normalized, which is quasi-uniform on the sphere for any dimension.
    """
    n, sphere_dim = _integer(n, "n", 1), _integer(sphere_dim, "sphere_dim", 2)
    if sphere_dim == 3:
        z = 1.0 - 2.0 * _halton(n, 1)[:, 0]
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = 2.0 * np.pi * ((np.arange(1, n + 1) * _GOLDEN_FRAC) % 1.0)
        return np.column_stack((r * np.cos(theta), r * np.sin(theta), z))
    g = ndtri(_halton(n, sphere_dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def fibonacci_sphere_designs(sizes: Sequence[int], sphere_dim: int = 3) -> list[Design]:
    """Nested sphere designs cut as prefixes of one quasi-uniform sequence."""
    sizes = _counts(sizes, "sizes")
    pts = sphere_sequence(sizes[-1], sphere_dim)
    return [Design.on_sphere(pts[:n]) for n in sizes]


def is_prefix_nested(designs: Sequence[Design]) -> bool:
    """True when each design strictly extends the previous one, on its geometry, as an exact prefix."""
    return all(
        a.geometry == b.geometry and len(a) < len(b) and np.array_equal(a.coords, b.coords[: len(a)])
        for a, b in zip(designs, designs[1:])
    )
