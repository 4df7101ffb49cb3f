"""J-divergence of centered Gaussian vectors and the dichotomy diagnostic.

The symmetrized divergence between two centered Gaussian laws with SPD
covariances R1, R2 on n points is

    J(n) = (tr(R1 R2^{-1}) + tr(R2 R1^{-1})) / 2 - n,

the sum of the two Kullback-Leibler divergences (their log-determinant terms
cancel).  Along nested designs J(n) is non-decreasing; boundedness of the
whole family is the equivalence side of the Gaussian dichotomy, linear
growth the orthogonal side.  A nested trace of two Markov kernels on the
line (Brownian, exponential) sums per-point AR(1) terms on each sorted
design and builds no Gram matrix; any other pair factors each kernel once,
on the largest design, and reads every J(n) off those factors as a
cumulative sum of per-point increments.  The diagnostic below turns a
finite trace into a labeled, threshold-based verdict and always ships the
raw numbers with it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dtrtri

from ._blas import blas_scope
from ._csvio import write_csv
from ._markov import LOG_2PI, MARKOV_KERNELS, markov_j_divergence
from .designs import is_prefix_nested
from .errors import ContractError
from .kernels import (
    CovarianceKernel,
    Design,
    GramMatrix,
    SchoenbergKernel,
    _array,
    _counts,
    _number,
    _schoenberg_matrices,
    gram,
    require_geometry,
)

__all__ = [
    "DivergenceTrace",
    "VerdictLabel",
    "DichotomyVerdict",
    "gaussian_logpdf",
    "j_divergence",
    "j_divergence_trace",
    "dichotomy_diagnostic",
    "trace_to_csv",
    "trace_to_json",
]

# Deterministic thresholds of the verdict rule.  The growth ratio is taken
# across one doubling of n; see dichotomy_diagnostic.
RATIO_ORTHOGONAL = 1.5
RATIO_EQUIVALENT = 1.05
SLOPE_FRACTION = 0.05


def gaussian_logpdf(g: GramMatrix, y) -> float:
    """Log-density of the centered Gaussian with covariance ``g`` at ``y``."""
    w = g.half_solve(_array(y, "y", (g.n,)))
    return -0.5 * float(w @ w) - 0.5 * g.log_det - 0.5 * g.n * LOG_2PI


def j_divergence(g1: GramMatrix, g2: GramMatrix) -> float:
    """Symmetrized divergence between two centered Gaussians on n points.

    Both traces are accumulated as squared Frobenius norms of triangular
    solves (``tr(R1 R2^{-1}) = ||L2^{-1} L1||_F^2``), so no inverse is formed.
    The result is symmetric in its arguments and nonnegative up to roundoff.
    """
    if g1.n != g2.n:
        raise ContractError("Gram matrices must have equal size")
    with blas_scope(g1.n**3):
        return 0.5 * (_squared_norm(g2.chol, g1.chol) + _squared_norm(g1.chol, g2.chol)) - g1.n


def _squared_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``||a^{-1} b||_F^2`` for lower-triangular ``a``; the solve is freed on
    return, so two of them are never live at once."""
    m = dtrsm(1.0, a, b, lower=1)
    return float(np.sum(m * m))


@dataclass(frozen=True, eq=False)
class DivergenceTrace:
    """Divergence values along a nested sequence of designs.

    ``slope_estimate`` is the least-squares slope of J(n) against n over the
    last half of the recorded points (at least two).
    """

    sizes: tuple[int, ...]
    values: np.ndarray
    slope_estimate: float

    def __post_init__(self):
        sizes = _counts(self.sizes, "sizes")
        values = _array(self.values, "values", (len(sizes),))
        values.flags.writeable = False
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slope_estimate", _number(self.slope_estimate, "slope_estimate"))


def _slope(sizes: Sequence[int], values: np.ndarray) -> float:
    if len(sizes) < 2:
        return 0.0
    k = max(2, (len(sizes) + 1) // 2)
    return float(np.polyfit(np.asarray(sizes[-k:], dtype=float), values[-k:], 1)[0])


def j_divergence_trace(
    k1: CovarianceKernel, k2: CovarianceKernel, designs: Sequence[Design]
) -> DivergenceTrace:
    """Evaluate J(n) for both kernels along strictly nested designs.

    Designs must be prefix-extensions of each other, and the geometry of ``k1``
    and then of ``k2`` is checked on the largest design, once, before any route
    is taken.  When both kernels are Markov on the line (:class:`BrownianKernel`
    or :class:`ExponentialKernel`, mixed pairs included), each J(n) is a sum of
    nonnegative per-point AR(1) terms on the sorted design, O(n log n) and no
    Gram matrix; see ``_markov.markov_j_divergence``.  A point at which an
    innovation variance is not positive raises :class:`SingularGramError` with
    that point's design-order index.

    Every other pair factors each kernel's Gram matrix once, on the largest
    design.  When both kernels are :class:`SchoenbergKernel`, the two matrices
    are assembled together, with one Gegenbauer recurrence per block (see
    ``kernels._schoenberg_matrices``); each kernel keeps its matrix, so the Gram
    matrices here and later calls on any prefix design are served as views.
    The Cholesky factor of a prefix is the leading block of that factor, and so
    are the prefix blocks of the lower-triangular ``M12 = L2^{-1} L1``, one BLAS
    ``dtrsm`` solve, and ``M21 = L1^{-1} L2 = M12^{-1}``, LAPACK ``dtrtri`` in place.
    J(n) is therefore the cumulative sum over rows i < n of
    ``(||M12[i]||^2 + ||M21[i]||^2) / 2 - 1``.  Each increment is >= 0 up to
    roundoff (``M21[i, i] = 1 / M12[i, i]``), so the only negative values are
    roundoff near J = 0; those are clamped to zero.
    """
    designs = list(designs)
    if not designs:
        raise ContractError("need at least one design")
    if not is_prefix_nested(designs):
        raise ContractError("designs must be strictly nested prefix-extensions")
    sizes = tuple(len(d) for d in designs)
    require_geometry(k1, designs[-1])
    require_geometry(k2, designs[-1])
    if isinstance(k1, MARKOV_KERNELS) and isinstance(k2, MARKOV_KERNELS):
        t = designs[-1].coords[:, 0]
        # largest design first, so that its errors are the ones raised, as on
        # the dense path
        values = np.array([markov_j_divergence(k1, k2, t[:n]) for n in reversed(sizes)])[::-1]
    else:
        if isinstance(k1, SchoenbergKernel) and isinstance(k2, SchoenbergKernel):
            # one recurrence for both matrices; the two grams below are served views
            _schoenberg_matrices((k1, k2), designs[-1].coords)
        l1, l2 = gram(k1, designs[-1]).chol, gram(k2, designs[-1]).chol
        with blas_scope(sizes[-1] ** 3):
            m = dtrsm(1.0, l2, l1, lower=1)
            rows = np.einsum("ij,ij->i", m, m)
            m = dtrtri(m, lower=1, overwrite_c=1)[0]  # M21 over M12: one n x n array live
        steps = 0.5 * (rows + np.einsum("ij,ij->i", m, m)) - 1.0
        values = np.maximum(np.cumsum(steps)[np.array(sizes) - 1], 0.0)
    return DivergenceTrace(sizes=sizes, values=values, slope_estimate=_slope(sizes, values))


class VerdictLabel(enum.Enum):
    EQUIVALENCE = "EquivalenceIndicated"
    ORTHOGONALITY = "OrthogonalityIndicated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DichotomyVerdict:
    label: VerdictLabel
    statistic: float
    rationale: str


def dichotomy_diagnostic(trace: DivergenceTrace) -> DichotomyVerdict:
    """Deterministic threshold rule on a finite divergence trace.

    Let r be the ratio of the final J to the J recorded at the size nearest
    n_last / 2.  Then r >= 1.5 indicates orthogonality (J keeps growing with
    n); r <= 1.05 together with a flat tail,
    ``slope * n_last <= 0.05 * J(n_last) + 1e-9``, indicates equivalence;
    anything else is inconclusive.  The statistic reported is always the
    tail slope estimate.  A finite trace cannot prove either side of the
    dichotomy; treat the label as a diagnostic reading of the raw trace.
    """
    if len(trace.sizes) < 4:
        raise ContractError("dichotomy diagnostic needs a trace of length >= 4")
    sizes = np.asarray(trace.sizes, dtype=float)
    n_last = sizes[-1]
    j_last = float(trace.values[-1])
    half_idx = int(np.argmin(np.abs(sizes - n_last / 2.0)))
    j_half = float(trace.values[half_idx])
    if j_half == 0.0:
        ratio = 1.0 if j_last == 0.0 else math.inf
    else:
        ratio = j_last / j_half
    slope = trace.slope_estimate
    if ratio >= RATIO_ORTHOGONAL:
        label = VerdictLabel.ORTHOGONALITY
        rationale = (
            f"J grew by a factor {ratio:.3g} across a doubling of n "
            f"(threshold {RATIO_ORTHOGONAL}); tail slope {slope:.3g}"
        )
    elif ratio <= RATIO_EQUIVALENT and slope * n_last <= SLOPE_FRACTION * j_last + 1e-9:
        label = VerdictLabel.EQUIVALENCE
        rationale = (
            f"J is flat: doubling ratio {ratio:.3g} <= {RATIO_EQUIVALENT} and "
            f"slope*n = {slope * n_last:.3g} within {SLOPE_FRACTION:.0%} of J(n)"
        )
    else:
        label = VerdictLabel.INCONCLUSIVE
        rationale = f"doubling ratio {ratio:.3g} between thresholds; tail slope {slope:.3g}"
    return DichotomyVerdict(label, statistic=slope, rationale=rationale)


def trace_to_csv(trace: DivergenceTrace, path) -> None:
    """Write the trace with header ``n,J,slope_estimate``."""
    slope = np.full(len(trace.sizes), trace.slope_estimate)
    write_csv(path, ["n", "J", "slope_estimate"], (trace.sizes, trace.values, slope))


def trace_to_json(trace: DivergenceTrace, verdict: DichotomyVerdict) -> dict:
    """JSON-ready record of the trace with its verdict."""
    return {
        "sizes": list(trace.sizes),
        "values": [float(v) for v in trace.values],
        "slope_estimate": trace.slope_estimate,
        "verdict": {
            "label": verdict.label.value,
            "statistic": verdict.statistic,
            "rationale": verdict.rationale,
        },
    }
