import math
import os
import re
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussequiv import (
    BrownianKernel,
    ContractError,
    Design,
    ExperimentConfig,
    ExponentialKernel,
    LikelihoodProblem,
    OptimizationFailedError,
    OptimizerConfig,
    ParamSpace,
    SchoenbergKernel,
    SchoenbergSpectrum,
    SingularGramError,
    equispaced_interval_design,
    fit_mle,
    gaussian_logpdf,
    gram,
    j_divergence_trace,
    microergodic_experiment,
    neg_log_likelihood,
    report_to_csv,
    sample_paths,
)
import gaussequiv.mle as mle
from gaussequiv._markov import _ar
from gaussequiv.designs import sphere_sequence
from gaussequiv.mle import PENALTY, _box_map, _likelihood, _nelder_mead, _start_points


SRC = str(Path(mle.__file__).resolve().parents[1])


def exp_family(theta):
    return ExponentialKernel(sigma=float(theta[0]), beta=float(theta[1]))


def brownian_family(theta):
    return BrownianKernel(sigma=float(theta[0]))


def one_square(kind, sigma):
    """The set of the bytes of ``matrix``'s diagonal at t = 1, ``sigma * sigma`` and ``_ar``'s ``v[:, 0]``."""
    kernel = BrownianKernel(sigma) if kind is BrownianKernel else ExponentialKernel(sigma, 0.7)
    t = np.ones(1)
    v = _ar(kind, np.array([astuple(kernel)]), t, t[1:])[2]
    return {np.float64(s).tobytes() for s in (kernel.matrix(t[:, None])[0, 0], sigma * sigma, v[0, 0])}


def simulate(n, sigma, beta, seed, domain=(0.0, 1.0)):
    design = equispaced_interval_design(n, domain)
    g = gram(ExponentialKernel(sigma=sigma, beta=beta), design)
    y = sample_paths(g, 1, seed).samples[0]
    return design, y


class TestNegLogLikelihood:
    def test_single_point_zero_data(self):
        design = Design.interval([0.0])
        problem = LikelihoodProblem(exp_family, design, np.zeros(1))
        assert neg_log_likelihood(problem, [1.0, 1.0]) == pytest.approx(
            0.5 * math.log(2 * math.pi), rel=1e-15
        )

    def test_identity_inducing_family(self):
        # points far enough apart that the exponential Gram is the identity
        design = Design.interval([0.0, 60.0])
        problem = LikelihoodProblem(exp_family, design, np.ones(2))
        assert neg_log_likelihood(problem, [1.0, 1.0]) == pytest.approx(
            1.0 + math.log(2 * math.pi), abs=1e-12
        )

    def test_dense_formula_oracle(self, rng):
        """Independent oracle: explicit inverse and determinant, n <= 10."""
        for n in (3, 7, 10):
            design = equispaced_interval_design(n, (0.0, 1.0))
            y = rng.standard_normal(n)
            problem = LikelihoodProblem(exp_family, design, y)
            for _ in range(5):
                theta = rng.uniform(0.3, 3.0, 2)
                r = theta[0] ** 2 * np.exp(
                    -theta[1] * np.abs(design.coords[:, 0][:, None] - design.coords[:, 0][None, :])
                )
                dense = 0.5 * (
                    y @ np.linalg.inv(r) @ y
                    + np.linalg.slogdet(r)[1]
                    + n * math.log(2 * math.pi)
                )
                assert neg_log_likelihood(problem, theta) == pytest.approx(dense, rel=1e-8)

    def test_degenerate_exponential_variance_penalized(self):
        # sigma^2 underflows to 0: the Markov variances vanish, the dense Gram is singular
        design = equispaced_interval_design(5)
        problem = LikelihoodProblem(exp_family, design, np.ones(5))
        with pytest.raises(SingularGramError):
            gram(exp_family([1e-200, 1.0]), design)
        assert neg_log_likelihood(problem, [1e-200, 1.0]) == PENALTY

    def test_exponential_geometry_mismatch_matches_gram(self):
        design = Design.on_sphere(sphere_sequence(3, 3))
        problem = LikelihoodProblem(exp_family, design, np.zeros(3))
        with pytest.raises(ContractError) as from_gram:
            gram(exp_family([1.0, 1.0]), design)
        with pytest.raises(ContractError, match=re.escape(str(from_gram.value))):
            neg_log_likelihood(problem, [1.0, 1.0])
        # a class family is checked once, when its likelihood is built
        with pytest.raises(ContractError, match=re.escape(str(from_gram.value))):
            _likelihood(ExponentialKernel, design, np.zeros((1, 3)))

    @pytest.mark.parametrize(
        "kind, family, theta",
        [
            (ExponentialKernel, exp_family, [-1.0, 1.0]),
            (ExponentialKernel, exp_family, [1.0, 0.0]),
            (ExponentialKernel, exp_family, [np.nan, 1.0]),
            (ExponentialKernel, exp_family, [1.0, np.nan]),
            (ExponentialKernel, exp_family, [1.0, np.inf]),
            (ExponentialKernel, exp_family, [1e200, 1.0]),
            (BrownianKernel, brownian_family, [0.0]),
            (BrownianKernel, brownian_family, [-np.inf]),
        ],
    )
    def test_class_family_rejects_theta_as_its_lambda_does(self, kind, family, theta):
        # sigma > 0 with a finite square, beta > 0 and finite: the constructor's rules and words
        design, y = simulate(10, 1.0, 1.0, seed=2)
        with pytest.raises(ContractError) as by_lambda:
            neg_log_likelihood(LikelihoodProblem(family, design, y), theta)
        with pytest.raises(ContractError, match=re.escape(str(by_lambda.value))):
            neg_log_likelihood(LikelihoodProblem(kind, design, y), theta)

    def test_class_family_takes_every_theta_its_lambda_takes(self):
        # beta = 1e200 has no finite square but is a valid rate
        design, y = simulate(10, 1.0, 1.0, seed=2)
        for theta in ([1.0, 1e200], [1e-200, 1.0], [1e150, 1e-300]):
            by_class = neg_log_likelihood(LikelihoodProblem(ExponentialKernel, design, y), theta)
            assert by_class == neg_log_likelihood(LikelihoodProblem(exp_family, design, y), theta)

    def test_class_family_needs_one_entry_per_parameter(self):
        design, y = simulate(10, 1.0, 1.0, seed=2)
        with pytest.raises(ContractError, match=re.escape("theta must have shape (2,), not (3,)")):
            neg_log_likelihood(LikelihoodProblem(ExponentialKernel, design, y), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("kind", [SchoenbergKernel, dict])
    def test_class_family_must_be_markov(self, kind):
        design, y = simulate(10, 1.0, 1.0, seed=2)
        with pytest.raises(ContractError, match=f"Markov, not {kind.__name__}"):
            LikelihoodProblem(kind, design, y)

    @pytest.mark.parametrize(
        "family, p, domain",
        [(exp_family, 2, (0.0, 1.0)), (brownian_family, 1, (0.1, 1.0))],
        ids=["exponential", "brownian"],
    )
    def test_markov_family_never_builds_a_gram(self, monkeypatch, family, p, domain):
        design, y = simulate(200, 1.0, 1.0, seed=21, domain=domain)

        def no_gram(*args, **kwargs):
            raise AssertionError("dense Gram built on the Markov likelihood path")

        monkeypatch.setattr("gaussequiv.mle.gram", no_gram)
        result = fit_mle(LikelihoodProblem(family, design, y), ParamSpace([0.05] * p, [20.0] * p))
        assert np.all(np.isfinite(result.theta_hat))

    def test_brownian_origin_penalized_with_the_trace_pivot(self):
        # X(0) = 0 for Brownian motion: the likelihood is penalized and the
        # trace raises at the pivot where dense dpotrf fails (design index 3)
        t = [0.5, 1.0, 0.25, 0.0, 0.75]
        design = Design.interval(t)
        problem = LikelihoodProblem(brownian_family, design, np.ones(5))
        assert neg_log_likelihood(problem, [1.0]) == PENALTY
        with pytest.raises(SingularGramError) as dense:
            gram(BrownianKernel(1.0), design)
        with pytest.raises(SingularGramError) as trace:
            j_divergence_trace(BrownianKernel(1.0), BrownianKernel(2.0), [Design.interval(t[:m]) for m in (4, 5)])
        assert trace.value.pivot == dense.value.pivot == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_brownian_overflow_rejected_like_gram(self):
        # sigma^2 t overflows: the Markov likelihood refuses, as the dense Gram does
        design = Design.interval([1e10, 2e10, 3e10])
        problem = LikelihoodProblem(brownian_family, design, np.ones(3))
        with pytest.raises(ContractError, match="finite"):
            gram(brownian_family([1e150]), design)
        with pytest.raises(ContractError, match="overflow"):
            neg_log_likelihood(problem, [1e150])

    def test_other_kernels_use_the_dense_gram(self, monkeypatch):
        # a Schoenberg family: every interval family of the package is Markov
        design = Design.on_sphere(sphere_sequence(5, 3))
        family = lambda th: SchoenbergKernel(SchoenbergSpectrum(3, np.array([float(th[0]), 1.0])))
        problem = LikelihoodProblem(family, design, np.ones(5))

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("gaussequiv.mle.gram", reached)
        with pytest.raises(Reached):
            neg_log_likelihood(problem, [1.0])

    def test_singular_gram_penalized(self):
        # rank-1 spherical kernel on 3 points is singular for every theta
        design = Design.on_sphere(sphere_sequence(3, 3))
        family = lambda th: SchoenbergKernel(SchoenbergSpectrum(3, np.array([float(th[0])])))
        problem = LikelihoodProblem(family, design, np.zeros(3))
        assert neg_log_likelihood(problem, [1.0]) == PENALTY


class TestFitMle:
    def test_dominates_truth_when_started_there(self):
        # log-scale center of [0.05, 20]^2 is exactly (1, 1), a multistart point
        design, y = simulate(200, 1.0, 1.0, seed=17)
        problem = LikelihoodProblem(exp_family, design, y)
        space = ParamSpace([0.05, 0.05], [20.0, 20.0])
        result = fit_mle(problem, space)
        assert result.loglik >= -neg_log_likelihood(problem, [1.0, 1.0]) - 1e-6
        assert np.all(result.theta_hat >= space.lower) and np.all(result.theta_hat <= space.upper)
        assert result.loglik == pytest.approx(-neg_log_likelihood(problem, result.theta_hat), abs=1e-12)
        assert result.maxfev_starts == 0

    def test_counts_starts_that_hit_max_evals(self):
        design, y = simulate(50, 1.0, 1.0, seed=5)
        problem = LikelihoodProblem(exp_family, design, y)
        result = fit_mle(problem, ParamSpace([0.05, 0.05], [20.0, 20.0]), OptimizerConfig(starts=2, max_evals=30))
        assert result.maxfev_starts == 2

    def test_scale_family_closed_form(self):
        # family R_theta = theta * R1; the maximizer is y' R1^{-1} y / n
        design, y = simulate(30, 1.0, 1.0, seed=3)
        base = gram(ExponentialKernel(sigma=1.0, beta=1.0), design)
        family = lambda th: ExponentialKernel(sigma=math.sqrt(float(th[0])), beta=1.0)
        problem = LikelihoodProblem(family, design, y)
        closed_form = float(np.sum(base.half_solve(y) ** 2)) / len(y)
        result = fit_mle(problem, ParamSpace([0.05], [20.0]))
        assert result.theta_hat[0] == pytest.approx(closed_form, rel=1e-4)

    def test_zero_data_pins_lower_edge(self):
        design = equispaced_interval_design(8, (0.0, 1.0))
        family = lambda th: ExponentialKernel(sigma=math.sqrt(float(th[0])), beta=1.0)
        problem = LikelihoodProblem(family, design, np.zeros(8))
        result = fit_mle(problem, ParamSpace([0.05], [20.0]))
        assert result.theta_hat[0] == pytest.approx(0.05, rel=1e-3)

    def test_deterministic(self):
        design, y = simulate(40, 1.0, 1.0, seed=8)
        problem = LikelihoodProblem(exp_family, design, y)
        space = ParamSpace([0.05, 0.05], [20.0, 20.0])
        r1 = fit_mle(problem, space)
        r2 = fit_mle(problem, space)
        np.testing.assert_array_equal(r1.theta_hat, r2.theta_hat)
        assert r1.evaluations == r2.evaluations

    def test_dominates_all_starts(self):
        from scipy.special import expit, logit
        from scipy.stats import qmc

        design, y = simulate(25, 1.0, 1.0, seed=4)
        problem = LikelihoodProblem(exp_family, design, y)
        space = ParamSpace([0.05, 0.05], [20.0, 20.0])
        result = fit_mle(problem, space)
        lo, hi = np.log(space.lower), np.log(space.upper)
        starts_u = [np.zeros(2)]
        h = qmc.Halton(d=2, scramble=False)
        h.fast_forward(1)
        starts_u += [logit(q) for q in h.random(4)]
        for u in starts_u:
            theta = np.exp(lo + (hi - lo) * expit(u))
            assert result.loglik >= -neg_log_likelihood(problem, theta) - 1e-12

    def test_all_starts_penalized(self):
        design = Design.on_sphere(sphere_sequence(3, 3))
        family = lambda th: SchoenbergKernel(SchoenbergSpectrum(3, np.array([float(th[0])])))
        problem = LikelihoodProblem(family, design, np.zeros(3))
        with pytest.raises(OptimizationFailedError):
            fit_mle(problem, ParamSpace([0.1], [10.0]))

    def test_tallies_match_objective_calls_and_starts(self):
        # evaluations counts likelihood points (the family is built once per
        # point); evaluations and maxfev_starts are SciPy's nfev and status
        from scipy.optimize import minimize

        points = 0

        def counting_family(theta):
            nonlocal points
            points += 1
            return exp_family(theta)

        design, y = simulate(20, 1.0, 1.0, seed=6)
        problem = LikelihoodProblem(counting_family, design, y)
        space = ParamSpace([0.05, 0.05], [20.0, 20.0])
        config = OptimizerConfig(starts=3.0, max_evals=40)
        result = fit_mle(problem, space, config)
        assert points == result.evaluations
        assert result.penalized_evaluations == 0
        assert result.maxfev_starts == 3
        to_theta, options = _box_map(space), {"xatol": config.tol_x, "fatol": config.tol_f, "maxfev": config.max_evals}
        runs = [
            minimize(lambda u: neg_log_likelihood(problem, to_theta(u)), u0, method="Nelder-Mead", options=options)
            for u0 in _start_points(space, 3)
        ]
        assert result.evaluations == sum(res.nfev for res in runs)
        assert result.maxfev_starts == sum(res.status == 1 for res in runs)

    def test_log_transform_needs_positive_box(self):
        design, y = simulate(5, 1.0, 1.0, seed=2)
        problem = LikelihoodProblem(exp_family, design, y)
        with pytest.raises(ContractError):
            fit_mle(problem, ParamSpace([-1.0, 0.05], [20.0, 20.0]))


def pair_setting(key, value):
    """``value`` as the pair ``key``; ``box_lower`` and ``box_upper`` are the two rows of ``box``."""
    if key == "box_lower":
        return {"box": (value, (20.0, 20.0))}
    if key == "box_upper":
        return {"box": ((0.05, 0.05), value)}
    return {key: value}


class TestMicroergodicExperiment:
    def test_small_experiment(self, tmp_path):
        config = ExperimentConfig(
            n_grid=(8, 12),
            replicates=20,
            seed=5,
            optimizer=OptimizerConfig(starts=2, max_evals=200),
        )
        report = microergodic_experiment(config)
        assert report.n_grid == (8, 12)
        assert report.failed == (0, 0)
        assert np.all(report.rmse_microergodic > 0)
        path = tmp_path / "consistency.csv"
        report_to_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,rmse_sigma2,rmse_beta,rmse_microergodic,failed_replicates"
        assert len(lines) == 3

    def test_grid_where_every_fit_fails(self, tmp_path, monkeypatch):
        real_fit = mle._fit

        def fit_or_fail(family, design, data, space, config):
            if len(design) == 12:
                return [None] * len(data)
            return real_fit(family, design, data, space, config)

        monkeypatch.setattr(mle, "_fit", fit_or_fail)
        config = ExperimentConfig(
            n_grid=(8, 12),
            replicates=20,
            seed=5,
            optimizer=OptimizerConfig(starts=2, max_evals=200),
        )
        report = microergodic_experiment(config)
        assert report.failed == (0, 20)
        rmses = (report.rmse_sigma2, report.rmse_beta, report.rmse_microergodic)
        assert all(np.isfinite(r[0]) and math.isnan(r[1]) for r in rmses)
        path = tmp_path / "consistency.csv"
        report_to_csv(report, path)
        assert path.read_text().splitlines()[2] == "12,nan,nan,nan,20"

    def test_replicates_fit_as_fit_mle_fits_each(self):
        # the lockstep batch of the experiment gives every replicate the fit of a lone fit_mle call
        design = equispaced_interval_design(30)
        batch = sample_paths(gram(ExponentialKernel(1.0, 1.0), design), 20, 3)
        space, config = ParamSpace([0.05, 0.05], [20.0, 20.0]), OptimizerConfig(starts=3, max_evals=120)
        for fit, y in zip(mle._fit(exp_family, design, batch.samples, space, config), batch.samples):
            alone = fit_mle(LikelihoodProblem(exp_family, design, y), space, config)
            assert fit.theta_hat.tobytes() == alone.theta_hat.tobytes() and fit.loglik == alone.loglik
            assert (fit.evaluations, fit.maxfev_starts) == (alone.evaluations, alone.maxfev_starts)

    def test_fractional_seed_rejected_before_any_fit(self):
        # the config reads its seed when built, so no experiment can start with it
        with pytest.raises(ContractError, match="seed must be an integer"):
            ExperimentConfig(n_grid=(8, 12), replicates=20, seed=7.5)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"seed": -1}, "seed"),
            ({"box": ((0.0, 0.05), (20.0, 20.0))}, "box"),
            ({"box": ((30.0, 0.05), (20.0, 20.0))}, "box"),
            ({"box": ((0.05, 0.05), (math.inf, 20.0))}, "box"),
            ({"box": 5}, "box"),
            ({"box": ((0.05, 0.05), (1.0, 1.0), (20.0, 20.0))}, "box"),
            ({"box": ((0.05,), (20.0,))}, "box"),
            ({"theta0": (-1.0, 1.0)}, "sigma"),
            ({"theta0": (1.0, 0.0)}, "beta"),
            ({"domain": (1.0, 0.0)}, "domain"),
        ],
    )
    def test_settings_checked_when_built(self, kwargs, name):
        with pytest.raises(ContractError, match=f"{name} must"):
            ExperimentConfig(**{"n_grid": (10, 20), "replicates": 20, "seed": 1, **kwargs})

    def test_box_read_as_nested_tuples(self):
        config = ExperimentConfig(n_grid=(10, 20), replicates=20, seed=1, box=np.array([[1, 1], [2, 3]]))
        assert config.box == ((1.0, 1.0), (2.0, 3.0))
        assert config == ExperimentConfig(n_grid=(10, 20), replicates=20, seed=1, box=[[1.0, 1.0], [2.0, 3.0]])

    def test_workers_other_than_one_rejected(self):
        ExperimentConfig(n_grid=(10, 20), replicates=20, seed=1, workers=1)
        with pytest.raises(ContractError, match="workers must be 1"):
            ExperimentConfig(n_grid=(10, 20), replicates=20, seed=1, workers=2)

    def test_validation(self):
        with pytest.raises(ContractError):
            ExperimentConfig(n_grid=(10, 10), replicates=20, seed=1)
        with pytest.raises(ContractError):
            ExperimentConfig(n_grid=(10, 20), replicates=5, seed=1)

    @pytest.mark.parametrize(
        "kwargs", [{"n_grid": (50.5, 100)}, {"n_grid": (True, 100)}, {"replicates": 20.5}, {"replicates": "20"}]
    )
    def test_counts_follow_the_integer_rule(self, kwargs):
        with pytest.raises(ContractError, match="must be"):
            ExperimentConfig(**{"n_grid": (50, 100), "replicates": 20, "seed": 1, **kwargs})

    def test_integral_float_counts_read_as_ints(self):
        config = ExperimentConfig(n_grid=[50.0, 100], replicates=20.0, seed=1)
        assert config.n_grid == (50, 100) and config.replicates == 20
        assert all(type(v) is int for v in (*config.n_grid, config.replicates))

    @pytest.mark.parametrize("key", ["theta0", "domain", "box_lower", "box_upper"])
    @pytest.mark.parametrize("value", [(1.0,), (0.5, 1.0, 2.0), 1.0])
    def test_pairs_must_have_length_two(self, key, value):
        # a box row of another length makes the box ragged, which is no array of numbers
        match = "box must be an array of JSON numbers" if key.startswith("box") else re.escape(f"{key} must have shape (2,)")
        with pytest.raises(ContractError, match=match):
            ExperimentConfig(n_grid=(10, 20), replicates=20, seed=1, **pair_setting(key, value))

    @pytest.mark.parametrize("key", ["theta0", "domain", "box_lower", "box_upper"])
    @pytest.mark.parametrize("value", [("a", 1), (True, 1.0)], ids=["str", "bool"])
    def test_pairs_are_json_numbers(self, key, value):
        name = key.split("_")[0]
        with pytest.raises(ContractError, match=f"{name} must be an array of JSON numbers"):
            ExperimentConfig(n_grid=(10, 20), replicates=20, seed=1, **pair_setting(key, value))

    def test_integral_pairs_read_as_floats(self):
        config = ExperimentConfig(n_grid=(10, 20), replicates=20, seed=1, domain=[0, 2], theta0=np.array([1, 3]))
        assert config.domain == (0.0, 2.0) and config.theta0 == (1.0, 3.0)
        assert all(type(v) is float for v in (*config.domain, *config.theta0))


# objectives of the equivalence tests; PENALTY and floor give plateaus of exact ties
SIMPLEX_OBJECTIVES = {
    "bowl": lambda x: float(np.sum((x - 0.3) ** 2)),
    "plateau": lambda x: PENALTY if x[0] > 0.2 else float(np.sum((x + 1.0) ** 2)),
    "steps": lambda x: float(np.floor(3.0 * np.sum(x))),
}


@pytest.mark.blas_pin
class TestLockstepMatchesScipy:
    """The lockstep search and the row-batched likelihood, bit for bit against their one-run forms."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SIMPLEX_OBJECTIVES))
    def test_nelder_mead_runs_equal_scipy(self, p, name):
        # maxfev 1..5 and 30 cut runs off inside the initial simplex, an
        # expansion, a contraction and a shrink; zero coordinates take zdelt
        from scipy.optimize import minimize

        fn = SIMPLEX_OBJECTIVES[name]
        x0 = np.array([np.zeros(p), np.r_[0.0, np.ones(p - 1)], np.linspace(-0.5, 0.7, p), np.full(p, 2.0)])
        for maxfev in (1, 2, 3, 5, 30, 2000):
            x, fun, nfev, status = _nelder_mead(lambda runs, u: np.array([fn(v) for v in u]), x0, 1e-6, 1e-9, maxfev)
            for i, start in enumerate(x0):
                options = {"xatol": 1e-6, "fatol": 1e-9, "maxfev": maxfev}
                res = minimize(fn, start, method="Nelder-Mead", options=options)
                assert (x[i].tobytes(), fun[i], nfev[i], status[i]) == (res.x.tobytes(), res.fun, res.nfev, res.status)

    @pytest.mark.parametrize("family, p", [(exp_family, 2), (brownian_family, 1)], ids=["exponential", "brownian"])
    def test_batched_markov_rows_equal_single_rows(self, rng, family, p):
        for n in (2, 3, 8, 31, 64, 199, 200, 401, 1000, 1001):
            design = Design.interval(np.sort(rng.uniform(0.01, 1.0, n)))
            data = rng.standard_normal((4, n))
            rows = np.array([0, 1, 2, 3, 3, 1, 0])
            thetas = np.exp(rng.normal(size=(len(rows), p)))
            # sigma^2 underflows to 0: a penalized row inside the batch
            thetas[4, 0] = 1e-200
            batched = _likelihood(family, design, data)(rows, thetas)
            problems = [LikelihoodProblem(family, design, y) for y in data]
            single = [neg_log_likelihood(problems[r], theta) for r, theta in zip(rows, thetas)]
            assert batched.tobytes() == np.array(single).tobytes()
            assert batched[4] == PENALTY and np.all(batched[np.arange(len(rows)) != 4] < PENALTY)

    def test_brownian_rows_at_the_origin_all_penalized(self, rng):
        design = Design.interval(np.r_[0.0, np.sort(rng.uniform(0.01, 1.0, 9))])
        data = rng.standard_normal((3, 10))
        batched = _likelihood(brownian_family, design, data)([0, 1, 2, 1], [[0.5], [1.0], [2.0], [3.0]])
        problem = LikelihoodProblem(brownian_family, design, data[1])
        assert list(batched) == [PENALTY] * 4 == [neg_log_likelihood(problem, [s]) for s in range(1, 5)]

    def test_mixed_kernel_batch_evaluated_point_by_point(self, rng):
        # kernels of two Markov classes in one batch: each point alone, a
        # Markov kernel as a batch of one, with its lone value and the dense NLL
        def family(theta):
            return BrownianKernel(float(theta[0])) if theta[1] < 1.0 else exp_family(theta)

        design = Design.interval(rng.uniform(0.01, 1.0, 40))
        data = rng.standard_normal((3, 40))
        rows = np.array([0, 1, 2, 1, 0, 2])
        thetas = np.array([[1.0, 0.5], [0.7, 2.0], [1.3, 0.2], [2.0, 1.5], [0.4, 0.9], [1e-200, 3.0]])
        batched = _likelihood(family, design, data)(rows, thetas)
        problems = [LikelihoodProblem(family, design, y) for y in data]
        single = [neg_log_likelihood(problems[r], theta) for r, theta in zip(rows, thetas)]
        assert batched.tobytes() == np.array(single).tobytes()
        assert batched[-1] == PENALTY
        for value, r, theta in zip(batched[:-1], rows, thetas):
            assert value == pytest.approx(-gaussian_logpdf(gram(family(theta), design), data[r]), rel=1e-8)

    @pytest.mark.parametrize(
        "kind, family, p", [(ExponentialKernel, exp_family, 2), (BrownianKernel, brownian_family, 1)],
        ids=["exponential", "brownian"],
    )
    def test_class_family_equals_its_lambda(self, rng, kind, family, p):
        # the class reads parameter columns, the lambda builds a kernel per point
        space = ParamSpace([0.05] * p, [20.0] * p)
        for n in (2, 3, 8, 31, 64, 199, 200, 401, 1000, 1001):
            design = Design.interval(np.sort(rng.uniform(0.01, 1.0, n)))
            data = rng.standard_normal((4, n))
            rows = np.array([0, 1, 2, 3, 3, 1, 0])
            thetas = np.exp(rng.normal(size=(len(rows), p)))
            # sigma^2 underflows to 0: a penalized row inside the batch
            thetas[4, 0] = 1e-200
            by_class = _likelihood(kind, design, data)(rows, thetas)
            assert by_class.tobytes() == _likelihood(family, design, data)(rows, thetas).tobytes()
            assert by_class[4] == PENALTY and np.all(by_class[np.arange(len(rows)) != 4] < PENALTY)
            if n in (2, 31, 1001):
                fits = [mle._fit(f, design, data[:2], space, OptimizerConfig()) for f in (kind, family)]
                for a, b in zip(*fits):
                    assert (a.theta_hat.tobytes(), a.loglik, a.evaluations) == (b.theta_hat.tobytes(), b.loglik, b.evaluations)
                    assert (a.penalized_evaluations, a.maxfev_starts) == (b.penalized_evaluations, b.maxfev_starts)

    def test_brownian_class_through_the_origin_equals_its_lambda(self, rng):
        design = Design.interval(np.r_[0.0, np.sort(rng.uniform(0.01, 1.0, 9))])
        data = rng.standard_normal((3, 10))
        rows, thetas = np.array([0, 1, 2, 1]), np.array([[0.5], [1.0], [2.0], [3.0]])
        by_class = _likelihood(BrownianKernel, design, data)(rows, thetas)
        assert list(by_class) == [PENALTY] * 4
        assert by_class.tobytes() == _likelihood(brownian_family, design, data)(rows, thetas).tobytes()
        space, config = ParamSpace([0.05], [20.0]), OptimizerConfig(starts=2, max_evals=40)
        assert mle._fit(BrownianKernel, design, data, space, config) == [None] * 3

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 1001), m=st.integers(1, 250), seed=st.integers(0, 2**32 - 1))
    def test_stacked_quadratic_forms_equal_row_dots(self, n, m, seed):
        # the one matmul of _markov_nll against one BLAS dot per row
        rng = np.random.default_rng(seed)
        e, v = rng.standard_normal((m, n)), rng.uniform(0.01, 2.0, (m, n))
        stacked = (e[:, None, :] @ (e / v)[:, :, None])[:, 0, 0]
        assert stacked.tobytes() == np.array([row @ w for row, w in zip(e, e / v)]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(sigma=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=300))
    def test_column_squares_are_products_over_the_box(self, sigma):
        # _ar squares a class's sigma column, and a callable family's kernels are
        # read as the same theta rows: each square is sigma * sigma, rounded once
        products = np.array([s * s for s in sigma])
        t = np.ones(1)
        thetas = np.array([astuple(ExponentialKernel(s, 1.0)) for s in sigma])
        for kind, theta in ((ExponentialKernel, thetas), (BrownianKernel, thetas[:, :1])):
            assert _ar(kind, theta, t, t[1:])[2][:, 0].tobytes() == products.tobytes()

    @pytest.mark.parametrize("kind", [ExponentialKernel, BrownianKernel])
    @pytest.mark.parametrize("sigma", [16.203729979459915, 12.48271618173295, 10.966535359799893])
    def test_dense_and_markov_paths_share_one_square(self, kind, sigma):
        # libm's pow gives sigma**2 one ulp away from sigma * sigma at these sigmas
        assert sigma**2 != sigma * sigma
        assert len(one_square(kind, sigma)) == 1

    @settings(max_examples=200, deadline=None)
    @given(sigma=st.floats(0.05, 20.0))
    def test_dense_and_markov_squares_agree_over_the_box(self, sigma):
        for kind in (ExponentialKernel, BrownianKernel):
            assert len(one_square(kind, sigma)) == 1

    def test_package_import_leaves_scipy_optimize_out(self):
        script = "import gaussequiv, sys; assert 'scipy.optimize' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script], env=env, check=True)


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_evals": 0}, {"max_evals": -5}, {"tol_x": math.nan}, {"tol_x": -1e-6}, {"tol_f": math.inf}],
    )
    def test_rejects_out_of_range_settings(self, kwargs):
        with pytest.raises(ContractError):
            OptimizerConfig(**kwargs)

    def test_accepts_zero_tolerances_and_one_evaluation(self):
        OptimizerConfig(tol_x=0.0, tol_f=0.0, max_evals=1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"starts": 2.5}, "starts must be an integer"),
            ({"starts": True}, "starts must be a JSON number"),
            ({"max_evals": 50.5}, "max_evals must be an integer"),
            ({"max_evals": "50"}, "max_evals must be a JSON number"),
            ({"tol_x": "1e-3"}, "tol_x must be a JSON number"),
            ({"tol_f": None}, "tol_f must be a JSON number"),
        ],
    )
    def test_settings_follow_the_number_rules(self, kwargs, message):
        with pytest.raises(ContractError, match=message):
            OptimizerConfig(**kwargs)

    def test_integral_floats_read_as_counts(self):
        config = OptimizerConfig(starts=2.0, max_evals=50.0, tol_x=0)
        assert config == OptimizerConfig(starts=2, max_evals=50, tol_x=0.0)
        assert [type(v) for v in vars(config).values()] == [int, float, float, int]
