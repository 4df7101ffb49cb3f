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
from itertools import repeat
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from ._csvio import write_csv
from ._markov import LOG_2PI, MARKOV_KERNELS, markov_j_divergence
from .designs import is_prefix_nested
from .errors import ContractError
from .kernels import CovarianceKernel, Design, GramMatrix, gram, require_geometry

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
    y = np.asarray(y, dtype=float)
    if y.shape != (g.n,):
        raise ContractError(f"observation vector must have length {g.n}")
    w = g.half_solve(y)
    return -0.5 * float(w @ w) - 0.5 * g.log_det - 0.5 * g.n * LOG_2PI


def j_divergence(g1: GramMatrix, g2: GramMatrix) -> float:
    """Symmetrized divergence between two centered Gaussians on n points.

    Both traces are accumulated as squared Frobenius norms of triangular
    solves (``tr(R1 R2^{-1}) = ||L2^{-1} L1||_F^2``), so no inverse is formed.
    The result is symmetric in its arguments and nonnegative up to roundoff.
    """
    if g1.n != g2.n:
        raise ContractError("Gram matrices must have equal size")
    m12 = solve_triangular(g2.chol, g1.chol, lower=True)
    m21 = solve_triangular(g1.chol, g2.chol, lower=True)
    return 0.5 * (float(np.sum(m12 * m12)) + float(np.sum(m21 * m21))) - g1.n


@dataclass(frozen=True, eq=False)
class DivergenceTrace:
    """Divergence values along a nested sequence of designs.

    ``slope_estimate`` is the least-squares slope of J(n) against n over the
    last half of the recorded points (at least two).
    """

    sizes: tuple[int, ...]
    values: np.ndarray
    slope_estimate: float

    def __len__(self) -> int:
        return len(self.sizes)


def _slope(sizes: Sequence[int], values: np.ndarray) -> float:
    if len(sizes) < 2:
        return 0.0
    k = max(2, (len(sizes) + 1) // 2)
    return float(np.polyfit(np.asarray(sizes[-k:], dtype=float), values[-k:], 1)[0])


def j_divergence_trace(
    k1: CovarianceKernel, k2: CovarianceKernel, designs: Sequence[Design]
) -> DivergenceTrace:
    """Evaluate J(n) for both kernels along strictly nested designs.

    Designs must be prefix-extensions of each other.  When both kernels are
    Markov on the line (:class:`BrownianKernel` or
    :class:`ExponentialKernel`, mixed pairs included), each J(n) is a sum of
    nonnegative per-point AR(1) terms on the sorted design, O(n log n) and
    no Gram matrix; see ``_markov.markov_j_divergence``.  A point at which
    an innovation variance is not positive raises
    :class:`SingularGramError` with that point's design-order index.

    Every other pair factors each kernel's Gram matrix once, on the largest
    design: the Cholesky factor of a prefix is the leading block of that
    factor, and so are the prefix blocks of the lower-triangular
    ``M12 = L2^{-1} L1`` and ``M21 = L1^{-1} L2``.  J(n) is therefore the
    cumulative sum over rows i < n of ``(||M12[i]||^2 + ||M21[i]||^2) / 2 - 1``.
    Each increment is >= 0 in exact arithmetic
    (``M12[i, i] * M21[i, i] = 1``), so the only negative values are
    roundoff near J = 0; those are clamped to zero.
    """
    designs = list(designs)
    if not designs:
        raise ContractError("need at least one design")
    if not is_prefix_nested(designs):
        raise ContractError("designs must be strictly nested prefix-extensions")
    sizes = tuple(len(d) for d in designs)
    if isinstance(k1, MARKOV_KERNELS) and isinstance(k2, MARKOV_KERNELS):
        require_geometry(k1, designs[-1])
        require_geometry(k2, designs[-1])
        t = designs[-1].coords[:, 0]
        # largest design first, so that its errors are the ones raised, as on
        # the dense path
        values = np.array([markov_j_divergence(k1, k2, t[:n]) for n in reversed(sizes)])[::-1]
    else:
        l1, l2 = gram(k1, designs[-1]).chol, gram(k2, designs[-1]).chol
        m12 = solve_triangular(l2, l1, lower=True)
        m21 = solve_triangular(l1, l2, lower=True)
        steps = 0.5 * (np.einsum("ij,ij->i", m12, m12) + np.einsum("ij,ij->i", m21, m21)) - 1.0
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
    if len(trace) < 4:
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
    rows = zip(trace.sizes, map(float, trace.values), repeat(float(trace.slope_estimate)))
    write_csv(path, ["n", "J", "slope_estimate"], rows)


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
