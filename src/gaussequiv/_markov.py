"""Markov structure of the interval kernels: AR(1) pairs on sorted points.

On sorted points ``t_0 < ... < t_{n-1}`` of the line, Brownian motion and
the exponential (Ornstein-Uhlenbeck) kernel are Markov:
``X_i = rho_i X_{i-1} + e_i`` with independent innovations
``e_i ~ N(0, v_i)`` and ``e_0 = X_0``.  The precision matrix is therefore
``B' D^{-1} B`` with B bidiagonal, and a likelihood or a J-divergence on n
points costs O(n) after sorting, with no Gram matrix.  Both read one AR(1)
form (``_ar``, a kernel class and one theta row of its parameters per kernel);
the dense Gram path is their oracle.  The likelihood takes ``(m, n)`` stacked
data rows and reads ``PENALTY`` on each singular row, where the J raises.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from .errors import ContractError, SingularGramError
from .kernels import BrownianKernel, ExponentialKernel, _half_line

LOG_2PI = math.log(2.0 * math.pi)

# the likelihood at a singular covariance, on the Markov and the dense path alike
PENALTY = 1e10

MARKOV_KERNELS = (ExponentialKernel, BrownianKernel)


def _ar(kind: type, theta: np.ndarray, t: np.ndarray, dt: np.ndarray):
    """AR(1) form of Markov class ``kind`` at ``(m, p)`` theta rows on sorted ``t``.

    The one split of theta, ``(sigma, beta)`` or ``(sigma,)``: ``s^2 = sigma * sigma``,
    rounded once as in ``matrix``.  Returns ``(prev_var, beta, v)`` with one row per
    kernel: ``rho_i = exp(-beta dt_i)`` is the coefficient of ``X_{i-1}`` in ``X_i``,
    ``prev_var`` is ``R(t_{i-1}, t_{i-1})`` for i >= 1 and ``v[:, i]`` is the
    innovation variance, ``v[:, 0] = R(t_0, t_0)``.  Each operation is
    elementwise, so a row is the arithmetic of its kernel alone, bit for bit.

    - Exponential: ``prev_var = s^2``, ``v = [s^2, -s^2 expm1(-2 beta dt)]``;
      ``expm1`` keeps ``1 - rho^2`` from cancelling when ``beta dt`` is small.
    - Brownian: ``prev_var = s^2 t[:-1]``, ``beta = 0`` (so ``rho = 1``
      exactly), ``v = [s^2 t_0, s^2 dt]``.
    """
    s2 = theta[:, :1] * theta[:, :1]
    v = np.empty((len(theta), len(t)))
    if issubclass(kind, ExponentialKernel):
        beta = theta[:, 1:]
        v[:, :1] = s2
        v[:, 1:] = -s2 * np.expm1(-2.0 * beta * dt)
        return s2, beta, v
    var = s2 * _half_line(t)
    if not np.isfinite(var[:, -1]).all():
        raise ContractError("kernel variances overflow on this design")
    v[:, :1] = var[:, :1]
    v[:, 1:] = s2 * dt
    return var[:, :-1], 0.0, v


def _sort_line(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, t[order], dt)``: the sorting permutation of ``t``, the sorted points, their increments."""
    order = np.argsort(t)
    ts = t[order]
    return order, ts, np.diff(ts)


def _require_positive(v: np.ndarray, order: np.ndarray) -> None:
    """Raise :class:`SingularGramError` unless every innovation variance is > 0.

    ``pivot`` is the first design-order index (``order[i]`` for sorted point
    i) with ``v <= 0``, e.g. a Brownian point at t = 0: dense ``dpotrf``
    fails there too.
    """
    if not v.min() > 0:
        raise SingularGramError(pivot=int(order[~(v > 0)].min()))


def markov_j_divergence(k1, k2, t: np.ndarray) -> float:
    """J between the laws of two Markov kernels on the points ``t``, in design order.

    The divergence splits into one conditional term per sorted point,

        (v1_i - v2_i)^2 / (2 v1_i v2_i)
          + (rho1_i - rho2_i)^2 (var1_{i-1} / v2_i + var2_{i-1} / v1_i) / 2,

    the second part for i >= 1 only; ``1 - rho = -expm1(-beta dt)`` does not
    cancel on fine designs.  That sum equals
    ``(tr(R1 R2^{-1}) + tr(R2 R1^{-1})) / 2 - n`` but every term is >= 0, so
    identical kernels give exactly 0 and no clamp is needed.

    Raises
    ------
    SingularGramError
        If an innovation variance is not positive; see ``_require_positive``.
    """
    order, ts, dt = _sort_line(t)
    (var1, beta1, v1), (var2, beta2, v2) = (_ar(type(k), np.array([astuple(k)]), ts, dt) for k in (k1, k2))
    _require_positive(v1[0], order)
    _require_positive(v2[0], order)
    decay1, decay2 = -np.expm1(-beta1 * dt), -np.expm1(-beta2 * dt)
    steps = (v1 - v2) ** 2 / (2.0 * v1 * v2)
    steps[:, 1:] += 0.5 * (decay1 - decay2) ** 2 * (var1 / v2[:, 1:] + var2 / v1[:, 1:])
    j = float(np.sum(steps))
    if not math.isfinite(j):
        raise ContractError("kernel variances overflow on this design")
    return j


def _markov_nll(kind: type, theta: np.ndarray, t: np.ndarray, dt: np.ndarray, y: np.ndarray) -> np.ndarray:
    """NLL of row i of the ``(m, n)`` data ``y`` on sorted ``t`` under theta row i of class ``kind``.

    ``y_j`` given ``y_{j-1}`` is normal with mean ``rho_j y_{j-1}`` and variance ``v_j``; a row
    reads ``PENALTY`` where its covariance is singular.  Rows share no arithmetic, and the
    stacked ``matmul`` of the quadratic forms ``e·(e/v)`` is a BLAS dot per row
    (``einsum`` reorders the sum), so a row equals its batch of one bit for bit.
    """
    _, beta, v = _ar(kind, theta, t, dt)
    singular = ~(v.min(axis=1) > 0)
    # a singular row reads PENALTY; 1 keeps its arithmetic quiet
    v[singular] = 1.0
    e = y.copy()
    e[:, 1:] -= np.exp(-beta * dt) * y[:, :-1]
    quad = (e[:, None, :] @ (e / v)[:, :, None])[:, 0, 0]
    nll = 0.5 * (quad + np.log(v).sum(axis=1)) + 0.5 * y.shape[1] * LOG_2PI
    nll[singular] = PENALTY
    return nll
