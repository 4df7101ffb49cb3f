import math
import re

import numpy as np
import pytest

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
    gram,
    j_divergence_trace,
    microergodic_experiment,
    neg_log_likelihood,
    report_to_csv,
    sample_paths,
)
from gaussequiv._markov import _markov_nll
from gaussequiv.designs import sphere_sequence
from gaussequiv.mle import PENALTY


def exp_family(theta):
    return ExponentialKernel(sigma=float(theta[0]), beta=float(theta[1]))


def brownian_family(theta):
    return BrownianKernel(sigma=float(theta[0]))


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
        design = Design.interval([0.5, 1.0, 0.25, 0.0, 0.75])
        problem = LikelihoodProblem(brownian_family, design, np.ones(5))
        assert neg_log_likelihood(problem, [1.0]) == PENALTY
        with pytest.raises(SingularGramError) as likelihood:
            _markov_nll(BrownianKernel(1.0), *problem._line_order)
        with pytest.raises(SingularGramError) as dense:
            gram(BrownianKernel(1.0), design)
        with pytest.raises(SingularGramError) as trace:
            j_divergence_trace(BrownianKernel(1.0), BrownianKernel(2.0), [design.prefix(m) for m in (4, 5)])
        assert likelihood.value.pivot == trace.value.pivot == dense.value.pivot == 3

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

    def test_tallies_match_objective_calls_and_starts(self, monkeypatch):
        # evaluations is the likelihood call count; minimize runs once per start
        import gaussequiv.mle as mle

        calls = {"nll": 0, "minimize": 0}
        real_nll, real_minimize = mle.neg_log_likelihood, mle.minimize

        def counting_nll(*args):
            calls["nll"] += 1
            return real_nll(*args)

        def counting_minimize(*args, **kwargs):
            calls["minimize"] += 1
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(mle, "neg_log_likelihood", counting_nll)
        monkeypatch.setattr(mle, "minimize", counting_minimize)
        design, y = simulate(20, 1.0, 1.0, seed=6)
        problem = LikelihoodProblem(exp_family, design, y)
        config = OptimizerConfig(starts=3.0, max_evals=40)
        result = fit_mle(problem, ParamSpace([0.05, 0.05], [20.0, 20.0]), config)
        assert calls == {"nll": result.evaluations, "minimize": 3}
        assert result.penalized_evaluations == 0
        assert result.maxfev_starts == 3

    def test_log_transform_needs_positive_box(self):
        design, y = simulate(5, 1.0, 1.0, seed=2)
        problem = LikelihoodProblem(exp_family, design, y)
        with pytest.raises(ContractError):
            fit_mle(problem, ParamSpace([-1.0, 0.05], [20.0, 20.0]))


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
        real_fit = fit_mle

        def fit_or_fail(problem, space, config):
            if len(problem.design) == 12:
                raise OptimizationFailedError("all starts terminated on the singularity penalty")
            return real_fit(problem, space, config)

        monkeypatch.setattr("gaussequiv.mle.fit_mle", fit_or_fail)
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

    def test_fractional_seed_rejected_before_any_fit(self, monkeypatch):
        # derive_seed rejects the seed before the first fit
        def no_fit(*args):
            raise AssertionError("fit_mle called")

        monkeypatch.setattr("gaussequiv.mle.fit_mle", no_fit)
        config = ExperimentConfig(n_grid=(8, 12), replicates=20, seed=7.5)
        with pytest.raises(ContractError, match="seed must be an integer"):
            microergodic_experiment(config)

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
    @pytest.mark.parametrize("value", [(1.0,), (0.5, 1.0, 2.0)])
    def test_pairs_must_have_length_two(self, key, value):
        with pytest.raises(ContractError, match=f"{key} must have length 2"):
            ExperimentConfig(n_grid=(10, 20), replicates=20, seed=1, **{key: value})


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
