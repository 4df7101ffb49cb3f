"""Maximum-likelihood covariance-parameter estimation and consistency experiments.

Fitting is a derivative-free simplex search (Nelder-Mead) run from several
deterministic starts.  ``_nelder_mead`` is SciPy's algorithm
(``bounds=None, adaptive=False``) run on many starts in lockstep: the starts
of one ``fit_mle``, or every replicate and start of one grid size of the
experiment, advance one iteration at a time, and each iteration evaluates
the likelihood at all their new points in one batch.  Each run takes
SciPy's steps, so it ends where ``scipy.optimize.minimize`` ends, bit for
bit; the tests hold it to that oracle.  Box constraints are enforced
through a smooth unconstrained reparameterization: a sigmoid maps R to the
box on the log scale of the parameters, so the box must be positive.  A
singular covariance met during the search returns ``PENALTY`` instead of
raising, which keeps the objective total over the box.

The fits take one family, one design and an ``(m, n)`` array of stacked data rows: one
row in ``fit_mle``, every replicate of a grid size in the experiment.  The likelihood
follows the Markov rule of ``j_divergence_trace``: for a Brownian or exponential kernel it
sums O(n) AR(1) innovations on the sorted design (``_markov._markov_nll``), with no Gram
matrix.  A Markov class family takes a batch of points as one array computation on its theta
rows; a callable family is evaluated kernel by kernel, and a kernel that is not Markov goes
through the dense Gram matrix, which is also the test oracle.

The microergodic experiment simulates an exponential-kernel process on
equispaced grids of a fixed bounded interval and tracks how the RMSE of the
variance, the range and their product behave as the grid is refined.  On a
bounded domain only the product sigma^2 * beta separates the Gaussian laws,
so it is the combination whose RMSE should shrink.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from typing import Callable

import numpy as np
from scipy.special import expit, logit

from ._csvio import write_csv
from ._markov import MARKOV_KERNELS, PENALTY, _markov_nll, _sort_line
from .divergence import gaussian_logpdf
from .errors import ContractError, OptimizationFailedError, SingularGramError
from .kernels import CovarianceKernel, Design, ExponentialKernel, gram, require_geometry
from .kernels import _array, _counts, _integer, _number, _pair
from .designs import _halton, _interval, equispaced_interval_design
from .sampler import _seeded_draw, derive_seed

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

@dataclass(frozen=True, eq=False)
class ParamSpace:
    """Box constraints, componentwise 0 < lower < upper < inf: the fits search the box on the log scale."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _array(self.lower, "lower", (None,))
        upper = _array(self.upper, "upper", lower.shape)
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if not np.all((0 < lower) & (lower < upper) & (upper < np.inf)):
            raise ContractError("box must satisfy 0 < lower < upper < inf componentwise")

    @property
    def p(self) -> int:
        return len(self.lower)


@dataclass(frozen=True, eq=False)
class LikelihoodProblem:
    """Data vector on a design together with a parametric kernel family.

    The family is ``ExponentialKernel`` or ``BrownianKernel``, whose theta lists the constructor's
    parameters in order and builds no kernel per point, or a callable from theta to any kernel."""

    family: Callable[[np.ndarray], CovarianceKernel] | type
    design: Design
    data: np.ndarray

    def __post_init__(self):
        if isinstance(self.family, type) and self.family not in MARKOV_KERNELS:
            raise ContractError(f"a kernel class family must be Markov, not {self.family.__name__}")
        data = _array(self.data, "data", (len(self.design),))
        data.flags.writeable = False
        object.__setattr__(self, "data", data)


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
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        for name in ("tol_x", "tol_f"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
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

    A singular covariance yields ``PENALTY`` instead of an exception, so optimizers can
    treat the objective as total.  A Markov kernel or class (the rule of ``j_divergence_trace``)
    is evaluated by its O(n) AR(1) form, every other kernel through the dense Gram matrix.
    This is the one-point case of the batched likelihood of the fits, on either of its paths.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(_likelihood(problem.family, problem.design, problem.data[None])([0], theta[None])[0])


def _likelihood(family, design: Design, data: np.ndarray):
    """``nll(rows, thetas)``: the NLL of ``data[rows[i]]`` under ``family`` at ``thetas[i]`` for every i.

    ``data`` stacks ``(m, n)`` rows of values on ``design``, which is sorted once.  The ``(m, p)``
    ``thetas`` of a Markov kernel class, checked once per batch, are one ``_markov_nll`` batch.  A
    callable family is evaluated kernel by kernel: a Markov kernel as its one theta row
    (``astuple``), bit for bit that row of the class batch, any other kernel through its dense
    Gram matrix, with ``PENALTY`` where that matrix is singular.
    """
    order, t, dt = _sort_line(design.coords[:, 0])
    line_data = data[:, order]

    if not isinstance(family, type):
        def point(kernel: CovarianceKernel, row: int) -> float:
            if isinstance(kernel, MARKOV_KERNELS):
                require_geometry(kernel, design)
                return _markov_nll(type(kernel), np.array([astuple(kernel)]), t, dt, line_data[row : row + 1])[0]
            try:
                return -gaussian_logpdf(gram(kernel, design), data[row])
            except SingularGramError:
                return PENALTY

        return lambda rows, thetas: np.array([point(family(theta), row) for theta, row in zip(thetas, rows)])

    require_geometry(family, design)
    p = len(fields(family))

    def nll(rows, thetas: np.ndarray) -> np.ndarray:
        # p entries in (0, 1e154) pass the constructor's rules; else it reads each row
        if thetas.shape[1] != p or not (thetas.min() > 0 and thetas.max() < 1e154):
            for theta in thetas:
                family(*_array(theta, "theta", (p,)).tolist())
        return _markov_nll(family, thetas, t, dt, line_data[rows])

    return nll


def _nelder_mead(f, x0: np.ndarray, xatol: float, fatol: float, maxfev: int):
    """SciPy's Nelder-Mead, ``bounds=None, adaptive=False``, on one run per row of ``x0``.

    ``f(runs, x)`` returns the objective of run ``runs[i]`` at ``x[i]`` for
    every i.  Each run takes the steps of
    ``minimize(fun, x0[i], method="Nelder-Mead", options={"xatol", "fatol", "maxfev"})``:
    its initial simplex, its coefficients, its stopping test and its
    ``argsort`` reordering.  An evaluation past ``maxfev`` ends the rest of
    that run's iteration, as SciPy's ``_MaxFuncCallError`` does.  The runs
    advance one iteration at a time: one ``f`` call for every reflection,
    one for the expansions and contractions, and up to p for shrinks.

    Returns ``(x, fun, nfev, status)``, one entry per run; status 1 marks
    a run that stopped on ``maxfev``, 0 one that met both tolerances.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    runs, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + nonzdelt) * x0, zdelt)
    fsim = np.full((runs, n + 1), np.inf)
    m = min(n + 1, maxfev)
    fsim[:, :m] = f(np.repeat(np.arange(runs), m), sim[:, :m].reshape(-1, n)).reshape(runs, m)
    nfev = np.full(runs, m)
    # SciPy sorts the initial simplex twice, and argsort may swap ties anew
    sim, fsim = _sorted(*_sorted(sim, fsim))
    live = nfev < maxfev
    while live.any():
        r = np.flatnonzero(live)
        s, fs = sim[r], fsim[r]
        done = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= fatol
        )
        live[r[done]] = False
        r, s, fs = r[~done], s[~done], fs[~done]
        if not len(r):
            break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = f(r, xr)
        nfev[r] += 1
        expand = fxr < fs[:, 0]
        accept = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~accept & (fxr < fs[:, -1])
        # expansion, outside, inside contraction: SciPy's bits, as a - (-b) == a + b
        c = np.where(expand, rho * chi, np.where(outside, psi * rho, -psi))[:, None]
        x2 = (1 + c) * xbar - c * worst
        # a run out of evaluations skips the rest of its iteration
        second = ~accept & (nfev[r] < maxfev)
        fx2 = np.full(len(r), np.nan)
        if second.any():
            fx2[second] = f(r[second], x2[second])
            nfev[r[second]] += 1
        better = np.where(expand, fx2 < fxr, np.where(outside, fx2 <= fxr, fx2 < fs[:, -1]))
        take_r = accept | (second & expand & ~better)
        take2 = second & better
        s[take_r, -1], fs[take_r, -1] = xr[take_r], fxr[take_r]
        s[take2, -1], fs[take2, -1] = x2[take2], fx2[take2]
        q = np.flatnonzero(second & ~expand & ~better)
        for j in range(1, n + 1):
            s[q, j] = s[q, 0] + sigma * (s[q, j] - s[q, 0])
            q = q[nfev[r[q]] < maxfev]
            if len(q):
                fs[q, j] = f(r[q], s[q, j])
                nfev[r[q]] += 1
        sim[r], fsim[r] = _sorted(s, fs)
        live[r] = nfev[r] < maxfev
    return sim[:, 0], np.min(fsim, axis=1), nfev, (nfev >= maxfev).astype(int)


def _sorted(sim: np.ndarray, fsim: np.ndarray):
    """Each run's simplex in the order of ``np.argsort`` of its values."""
    runs, ind = np.arange(len(fsim))[:, None], np.argsort(fsim, axis=1)
    return sim[runs, ind], fsim[runs, ind]


def _box_map(space: ParamSpace):
    lo, hi = np.log(space.lower), np.log(space.upper)
    return lambda u: np.exp(lo + (hi - lo) * expit(u))


def _start_points(space: ParamSpace, starts: int) -> np.ndarray:
    # u = 0 is the center of the log box; the rest interpolate the
    # box at fixed low-discrepancy fractions
    return np.vstack([np.zeros(space.p), logit(_halton(starts - 1, space.p))])


def _fit(
    family, design: Design, data: np.ndarray, space: ParamSpace, config: OptimizerConfig
) -> list[MLEResult | None]:
    """Fit every row of the ``(m, n)`` data on ``design`` from every start in one lockstep search.

    An entry is ``None`` where every start of that row terminated on the
    singularity penalty.
    """
    to_theta, nll = _box_map(space), _likelihood(family, design, data)
    starts = _start_points(space, config.starts)
    penalized = np.zeros(len(data), dtype=int)

    def objective(runs: np.ndarray, u: np.ndarray) -> np.ndarray:
        rows = runs // len(starts)
        val = nll(rows, to_theta(u))
        np.add.at(penalized, rows, val >= PENALTY)
        return val

    x, fun, nfev, status = _nelder_mead(
        objective, np.tile(starts, (len(data), 1)), config.tol_x, config.tol_f, config.max_evals
    )
    results = []
    for i, own in enumerate(np.arange(len(x)).reshape(len(data), -1)):
        # the first of the starts with the least value
        best = min(own, key=fun.__getitem__)
        fit = MLEResult(
            theta_hat=to_theta(x[best]),
            loglik=-float(fun[best]),
            evaluations=int(nfev[own].sum()),
            penalized_evaluations=int(penalized[i]),
            maxfev_starts=int(status[own].sum()),
        )
        results.append(None if fun[best] >= PENALTY else fit)
    return results


def fit_mle(
    problem: LikelihoodProblem, space: ParamSpace, config: OptimizerConfig = OptimizerConfig()
) -> MLEResult:
    """Maximize the likelihood over the box by multistart simplex search.

    Deterministic for fixed inputs.  Raises
    :class:`OptimizationFailedError` when every start terminates on the
    singularity penalty.
    """
    (result,) = _fit(problem.family, problem.design, problem.data[None], space, config)
    if result is None:
        raise OptimizationFailedError("all starts terminated on the singularity penalty")
    return result


# ---------------------------------------------------------------------------
# microergodic consistency experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the exponential-kernel consistency experiment.

    ``box`` is the parameter box of the fits, ``[[lo_sigma, lo_beta], [hi_sigma, hi_beta]]``.
    """

    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    theta0: tuple[float, float] = (1.0, 1.0)
    domain: tuple[float, float] = (0.0, 1.0)
    box: tuple[tuple[float, float], tuple[float, float]] = ((0.05, 0.05), (20.0, 20.0))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    # kept only so that callers passing ``workers=1`` still construct
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_grid", _counts(self.n_grid, "n_grid"))
        object.__setattr__(self, "replicates", _integer(self.replicates, "replicates", 20))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        object.__setattr__(self, "theta0", _pair(self.theta0, "theta0"))
        ExponentialKernel(*self.theta0)
        object.__setattr__(self, "domain", _interval(self.domain))
        box = _array(self.box, "box", (2, 2))
        ParamSpace(*box)
        object.__setattr__(self, "box", tuple(map(tuple, box.tolist())))
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


def _rmse(err: np.ndarray) -> float:
    return math.sqrt(float(np.mean(err**2))) if len(err) else math.nan


def microergodic_experiment(config: ExperimentConfig) -> ConsistencyReport:
    """Simulate, refit and summarize RMSE across grid refinements.

    For each n the replicate batch is drawn in one seeded block with a
    sub-seed derived from (seed, n), then every replicate is refit from
    every start in one lockstep search (``_fit``), each fit exactly as
    :func:`fit_mle` would make it; failed optimizations are excluded from
    the RMSE and counted.
    """
    sigma0, beta0 = config.theta0
    kernel0, space = ExponentialKernel(sigma0, beta0), ParamSpace(*config.box)
    rows, failed = [], []
    for n in config.n_grid:
        design = equispaced_interval_design(n, config.domain)
        batch = _seeded_draw(kernel0, design, config.replicates, derive_seed(config.seed, n))
        fits = _fit(ExponentialKernel, design, batch.samples, space, config.optimizer)
        ok = [fit.theta_hat for fit in fits if fit is not None]
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
    )


def report_to_csv(report: ConsistencyReport, path) -> None:
    """Write the report with header ``n,rmse_sigma2,rmse_beta,rmse_microergodic,failed_replicates``."""
    header = ["n", "rmse_sigma2", "rmse_beta", "rmse_microergodic", "failed_replicates"]
    columns = (report.n_grid, report.rmse_sigma2, report.rmse_beta, report.rmse_microergodic, report.failed)
    write_csv(path, header, columns)
