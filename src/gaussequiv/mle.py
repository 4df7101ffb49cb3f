"""Maximum-likelihood covariance-parameter estimation and consistency experiments.

Fitting is a derivative-free simplex search (Nelder-Mead) run from several
deterministic starts.  Box constraints are enforced through a smooth
unconstrained reparameterization: a sigmoid maps R to the box on the log
scale of the parameters, so the box must be positive.  A singular
covariance met during the search returns ``PENALTY`` instead of raising,
which keeps the objective total over the box.

The likelihood follows the Markov rule of ``j_divergence_trace``: for a
Brownian or exponential kernel it sums O(n) AR(1) innovations on sorted
points (``_markov._markov_nll``), with no Gram matrix.  Every other kernel
goes through the dense Gram matrix and its Cholesky factor, which is also
the test oracle of the Markov path.

The microergodic experiment simulates an exponential-kernel process on
equispaced grids of a fixed bounded interval and tracks how the RMSE of the
variance, the range and their product behave as the grid is refined.  On a
bounded domain only the product sigma^2 * beta separates the Gaussian laws,
so it is the combination whose RMSE should shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from ._csvio import write_csv
from ._markov import MARKOV_KERNELS, _markov_nll
from .divergence import gaussian_logpdf
from .errors import ContractError, OptimizationFailedError, SingularGramError
from .kernels import CovarianceKernel, Design, ExponentialKernel, gram, require_geometry
from .kernels import _integer, _number
from .designs import _halton, equispaced_interval_design
from .sampler import derive_seed, sample_paths

__all__ = [
    "ParamSpace",
    "LikelihoodProblem",
    "OptimizerConfig",
    "MLEResult",
    "ExperimentConfig",
    "ConsistencyReport",
    "neg_log_likelihood",
    "fit_mle",
    "microergodic_experiment",
    "report_to_csv",
]

# the likelihood at a singular covariance, on the Markov and the dense path alike
PENALTY = 1e10


@dataclass(frozen=True, eq=False)
class ParamSpace:
    """Box constraints, componentwise lower < upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ContractError("lower and upper bounds must be vectors of equal length")
        if not np.all(lower < upper):
            raise ContractError("box must satisfy lower < upper componentwise")

    @property
    def p(self) -> int:
        return len(self.lower)


@dataclass(frozen=True, eq=False)
class LikelihoodProblem:
    """Data vector on a design together with a parametric kernel family."""

    family: Callable[[np.ndarray], CovarianceKernel]
    design: Design
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", np.atleast_1d(np.asarray(self.data, dtype=float)))
        if self.data.ndim != 1 or len(self.data) != len(self.design):
            raise ContractError("data length must match the design size")

    @cached_property
    def _line_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(order, t, dt, y)``: sorting permutation, sorted points, their
        (positive) increments and the data in that order, on a 1-D design.
        """
        order = np.argsort(self.design.coords[:, 0])
        t = self.design.coords[order, 0]
        return order, t, np.diff(t), self.data[order]


@dataclass(frozen=True)
class OptimizerConfig:
    """Simplex-search settings.

    ``starts`` points are used: the box center plus quasi-random points from
    an unscrambled Halton sequence (all deterministic).  Each start stops
    when the simplex diameter falls below ``tol_x`` (with function spread
    below ``tol_f``) or after ``max_evals`` objective evaluations.  The two
    counts are integers (``2.0`` is read as 2; ``2.5`` and ``True`` raise
    :class:`ContractError`) and the two tolerances numbers.
    """

    starts: int = 5
    tol_x: float = 1e-6
    tol_f: float = 1e-9
    max_evals: int = 2000

    def __post_init__(self):
        for name in ("starts", "max_evals"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("tol_x", "tol_f"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if self.starts < 1:
            raise ContractError("need at least one start")
        if self.max_evals < 1:
            raise ContractError("max_evals must be >= 1")
        if not (0 <= self.tol_x < math.inf and 0 <= self.tol_f < math.inf):
            raise ContractError("tol_x and tol_f must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class MLEResult:
    """Best fit over all starts.

    ``evaluations`` and ``penalized_evaluations`` count objective calls over
    every start; ``maxfev_starts`` counts the starts that stopped on
    ``max_evals`` rather than on the tolerances.
    """

    theta_hat: np.ndarray
    loglik: float
    evaluations: int
    penalized_evaluations: int = 0
    maxfev_starts: int = 0


def neg_log_likelihood(problem: LikelihoodProblem, theta) -> float:
    """Negative Gaussian log-likelihood of the data at parameter ``theta``.

    A singular covariance yields ``PENALTY`` instead of an exception, so
    optimizers can treat the objective as total.  A Markov kernel (the rule
    of ``j_divergence_trace``) is evaluated by its O(n) AR(1) form, every
    other kernel through the dense Gram matrix.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    kernel = problem.family(theta)
    try:
        if isinstance(kernel, MARKOV_KERNELS):
            require_geometry(kernel, problem.design)
            return _markov_nll(kernel, *problem._line_order)
        return -gaussian_logpdf(gram(kernel, problem.design), problem.data)
    except SingularGramError:
        return PENALTY


def _box_map(space: ParamSpace):
    if np.any(space.lower <= 0):
        raise ContractError("log transform requires strictly positive lower bounds")
    lo, hi = np.log(space.lower), np.log(space.upper)
    return lambda u: np.exp(lo + (hi - lo) * expit(u))


def _start_points(space: ParamSpace, starts: int) -> list[np.ndarray]:
    # u = 0 is the center of the log box; the rest interpolate the
    # box at fixed low-discrepancy fractions
    return [np.zeros(space.p)] + [logit(q) for q in _halton(starts - 1, space.p)]


def fit_mle(
    problem: LikelihoodProblem, space: ParamSpace, config: OptimizerConfig = OptimizerConfig()
) -> MLEResult:
    """Maximize the likelihood over the box by multistart simplex search.

    Deterministic for fixed inputs.  Raises
    :class:`OptimizationFailedError` when every start terminates on the
    singularity penalty.
    """
    to_theta = _box_map(space)
    penalized = 0

    def objective(u: np.ndarray) -> float:
        nonlocal penalized
        val = neg_log_likelihood(problem, to_theta(u))
        if val >= PENALTY:
            penalized += 1
        return val

    options = {"xatol": config.tol_x, "fatol": config.tol_f, "maxfev": config.max_evals}
    starts = _start_points(space, config.starts)
    runs = [minimize(objective, u0, method="Nelder-Mead", options=options) for u0 in starts]
    best = min(runs, key=lambda res: res.fun)
    if best.fun >= PENALTY:
        raise OptimizationFailedError("all starts terminated on the singularity penalty")
    return MLEResult(
        theta_hat=to_theta(best.x),
        loglik=-float(best.fun),
        evaluations=sum(res.nfev for res in runs),
        penalized_evaluations=penalized,
        maxfev_starts=sum(res.status == 1 for res in runs),
    )


# ---------------------------------------------------------------------------
# microergodic consistency experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the exponential-kernel consistency experiment."""

    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    theta0: tuple[float, float] = (1.0, 1.0)
    domain: tuple[float, float] = (0.0, 1.0)
    box_lower: tuple[float, float] = (0.05, 0.05)
    box_upper: tuple[float, float] = (20.0, 20.0)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    # kept only so that callers passing ``workers=1`` still construct
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(_integer(n, "n_grid") for n in self.n_grid))
        object.__setattr__(self, "replicates", _integer(self.replicates, "replicates"))
        if len(self.n_grid) < 1 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ContractError("n_grid must be strictly increasing")
        if self.replicates < 20:
            raise ContractError("experiment needs at least 20 replicates")
        for name in ("theta0", "domain", "box_lower", "box_upper"):
            if len(getattr(self, name)) != 2:
                raise ContractError(f"{name} must have length 2")
        if self.workers != 1:
            raise ContractError("workers must be 1: replicate fits run serially")


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Per-grid-size RMSE of the variance, range and microergodic product."""

    n_grid: tuple[int, ...]
    rmse_sigma2: np.ndarray
    rmse_beta: np.ndarray
    rmse_microergodic: np.ndarray
    failed: tuple[int, ...]
    replicates: int
    seed: int


def _exponential_family(theta: np.ndarray) -> CovarianceKernel:
    return ExponentialKernel(sigma=float(theta[0]), beta=float(theta[1]))


def _rmse(err: np.ndarray) -> float:
    return math.sqrt(float(np.mean(err**2))) if len(err) else math.nan


def microergodic_experiment(config: ExperimentConfig) -> ConsistencyReport:
    """Simulate, refit and summarize RMSE across grid refinements.

    For each n the replicate batch is drawn in one seeded block with a
    sub-seed derived from (seed, n), then every replicate is refit
    independently; failed optimizations are excluded from the RMSE and
    counted.
    """
    sigma0, beta0 = config.theta0
    space = ParamSpace(np.array(config.box_lower), np.array(config.box_upper))
    rows, failed = [], []
    for n in config.n_grid:
        design = equispaced_interval_design(n, config.domain)
        g0 = gram(ExponentialKernel(sigma=sigma0, beta=beta0), design)
        batch = sample_paths(g0, config.replicates, derive_seed(config.seed, n))
        ok = []
        for y in batch.samples:
            problem = LikelihoodProblem(family=_exponential_family, design=design, data=y)
            try:
                ok.append(fit_mle(problem, space, config.optimizer).theta_hat)
            except OptimizationFailedError:
                pass
        failed.append(config.replicates - len(ok))
        thetas = np.array(ok).reshape(-1, 2)
        s2, b = thetas[:, 0] ** 2, thetas[:, 1]
        rows.append([_rmse(s2 - sigma0**2), _rmse(b - beta0), _rmse(s2 * b - sigma0**2 * beta0)])
    rmse_s2, rmse_b, rmse_m = np.array(rows).T
    return ConsistencyReport(
        n_grid=config.n_grid,
        rmse_sigma2=rmse_s2,
        rmse_beta=rmse_b,
        rmse_microergodic=rmse_m,
        failed=tuple(failed),
        replicates=config.replicates,
        seed=config.seed,
    )


def report_to_csv(report: ConsistencyReport, path) -> None:
    """Write the report with header ``n,rmse_sigma2,rmse_beta,rmse_microergodic,failed_replicates``."""
    rows = zip(
        report.n_grid,
        map(float, report.rmse_sigma2),
        map(float, report.rmse_beta),
        map(float, report.rmse_microergodic),
        report.failed,
    )
    header = ["n", "rmse_sigma2", "rmse_beta", "rmse_microergodic", "failed_replicates"]
    write_csv(path, header, rows)
