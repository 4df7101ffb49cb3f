"""Markov structure of the interval kernels: AR(1) pairs on sorted points.

On sorted points ``t_0 < ... < t_{n-1}`` of the line, Brownian motion and
the exponential (Ornstein-Uhlenbeck) kernel are Markov:
``X_i = rho_i X_{i-1} + e_i`` with independent innovations
``e_i ~ N(0, v_i)`` and ``e_0 = X_0``.  The precision matrix is therefore
``B' D^{-1} B`` with B bidiagonal, and a likelihood or a J-divergence on n
points costs O(n) after sorting, with no Gram matrix.  The dense Gram path
stays the test oracle for both.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, SingularGramError
from .kernels import BrownianKernel, ExponentialKernel, _half_line

LOG_2PI = math.log(2.0 * math.pi)

# Objective value of a likelihood evaluation whose covariance is numerically
# singular, on the Markov and on the dense path alike.
PENALTY = 1e10

MARKOV_KERNELS = (BrownianKernel, ExponentialKernel)


def _ar(kernel: BrownianKernel | ExponentialKernel, t: np.ndarray):
    """Marginal variances, AR decays and innovation variances on sorted ``t``.

    Returns ``(var, decay, v)``: ``var[i] = R(t_i, t_i)``; ``decay[i - 1]`` is
    ``1 - rho_i``, where ``rho_i`` is the coefficient of ``X_{i-1}`` in
    ``X_i`` (i >= 1); ``v[i]`` is the innovation variance, ``v[0] = var[0]``.

    - Exponential: ``var = s^2``, ``rho = exp(-beta dt)``,
      ``v = [s^2, -s^2 expm1(-2 beta dt)]``.
    - Brownian: ``var = s^2 t``, ``rho = 1``, ``v = [s^2 t_0, s^2 dt]``.

    ``1 - rho`` and ``1 - rho^2`` are formed with ``expm1``: on fine designs
    ``beta dt`` is small and ``exp`` would cancel in both.
    """
    s2 = kernel.sigma**2
    dt = np.diff(t)
    v = np.empty_like(t)
    if isinstance(kernel, BrownianKernel):
        var = s2 * _half_line(t)
        v[0] = var[0]
        v[1:] = s2 * dt
        return var, np.zeros_like(dt), v
    v[0] = s2
    v[1:] = -s2 * np.expm1(-2.0 * kernel.beta * dt)
    return np.full_like(t, s2), -np.expm1(-kernel.beta * dt), v


def markov_j_divergence(k1, k2, t: np.ndarray) -> float:
    """J between the laws of two Markov kernels on the points ``t``, in design order.

    The divergence splits into one conditional term per sorted point,

        (v1_i - v2_i)^2 / (2 v1_i v2_i)
          + (rho1_i - rho2_i)^2 (var1_{i-1} / v2_i + var2_{i-1} / v1_i) / 2,

    the second part for i >= 1 only.  That sum equals
    ``(tr(R1 R2^{-1}) + tr(R2 R1^{-1})) / 2 - n`` but every term is >= 0, so
    identical kernels give exactly 0 and no clamp is needed.

    Raises
    ------
    SingularGramError
        If an innovation variance is not positive (a Brownian point at
        t = 0); ``pivot`` is the design-order index of that point, which is
        where dense ``dpotrf`` fails on such a design.
    """
    order = np.argsort(t)
    ts = t[order]
    (var1, decay1, v1), (var2, decay2, v2) = _ar(k1, ts), _ar(k2, ts)
    for v in (v1, v2):
        singular = order[~(v > 0)]
        if singular.size:
            raise SingularGramError(pivot=int(singular.min()))
    steps = (v1 - v2) ** 2 / (2.0 * v1 * v2)
    steps[1:] += 0.5 * (decay1 - decay2) ** 2 * (var1[:-1] / v2[1:] + var2[:-1] / v1[1:])
    j = float(np.sum(steps))
    if not math.isfinite(j):
        raise ContractError("kernel variances overflow on this design")
    return j


def _markov_nll(kernel: ExponentialKernel, y: np.ndarray, dt: np.ndarray) -> float:
    """Exponential-kernel NLL of data ``y`` on sorted points with increments ``dt``.

    ``y_i`` given ``y_{i-1}`` is normal with mean ``rho_i y_{i-1}`` and
    variance ``sigma^2 (1 - rho_i^2)``, ``rho_i = exp(-beta dt_i)``; the
    variance is formed with ``expm1`` because ``1 - rho_i^2`` cancels when
    ``beta dt_i`` is small.  A variance that underflows to zero means the
    kernel matrix is numerically singular: ``PENALTY``.
    """
    s2 = kernel.sigma**2
    v = np.empty_like(y)
    v[0] = s2
    v[1:] = -s2 * np.expm1(-2.0 * kernel.beta * dt)
    if not v.min() > 0:
        return PENALTY
    e = y.copy()
    e[1:] -= np.exp(-kernel.beta * dt) * y[:-1]
    return 0.5 * float(e @ (e / v) + np.log(v).sum()) + 0.5 * len(y) * LOG_2PI
