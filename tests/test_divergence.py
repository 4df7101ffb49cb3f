import json
import math

import numpy as np
import pytest

from gaussequiv import (
    BrownianKernel,
    ContractError,
    Design,
    DivergenceTrace,
    ExponentialKernel,
    SchoenbergKernel,
    SchoenbergSpectrum,
    SingularGramError,
    VerdictLabel,
    dichotomy_diagnostic,
    gaussian_logpdf,
    gram,
    gram_from_matrix,
    j_divergence,
    j_divergence_trace,
    trace_to_csv,
    trace_to_json,
)
from gaussequiv.designs import dyadic_interval_designs, fibonacci_sphere_designs

from conftest import make_spd


def kl_oracle(r1, r2):
    """KL(N(0,R1) || N(0,R2)) by explicit inverse and log-determinants."""
    n = r1.shape[0]
    inv2 = np.linalg.inv(r2)
    _, ld1 = np.linalg.slogdet(r1)
    _, ld2 = np.linalg.slogdet(r2)
    return 0.5 * (np.trace(inv2 @ r1) - n + ld2 - ld1)


class TestGaussianLogpdf:
    def test_standard_normal_at_zero(self):
        g = gram_from_matrix(np.eye(1))
        assert gaussian_logpdf(g, [0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-15)

    def test_identity_two_dim(self):
        g = gram_from_matrix(np.eye(2))
        assert gaussian_logpdf(g, [1.0, 1.0]) == pytest.approx(-1.0 - math.log(2 * math.pi), rel=1e-15)

    def test_scalar_variance_four(self):
        # oracle: N(0, 4) density at 2
        g = gram_from_matrix(np.array([[4.0]]))
        expected = -0.5 - 0.5 * math.log(4.0) - 0.5 * math.log(2 * math.pi)
        assert gaussian_logpdf(g, [2.0]) == pytest.approx(expected, rel=1e-15)

    def test_dimension_mismatch(self):
        g = gram_from_matrix(np.eye(2))
        with pytest.raises(ContractError):
            gaussian_logpdf(g, [1.0])


class TestJDivergence:
    def test_identical_is_zero(self, rng):
        g = gram_from_matrix(make_spd(rng, 7))
        assert j_divergence(g, g) == 0.0

    def test_scalar_scale_closed_form(self):
        g2 = gram_from_matrix(np.array([[1.0]]))
        g1 = gram_from_matrix(np.array([[4.0]]))
        assert j_divergence(g1, g2) == pytest.approx(0.5 * (2 - 0.5) ** 2, rel=1e-12)

    def test_brownian_scale_n2(self):
        d = Design.interval([0.5, 1.0])
        g1 = gram(BrownianKernel(sigma=1.0), d)
        g2 = gram(BrownianKernel(sigma=2.0), d)
        # oracle: direct 2x2 trace arithmetic, tr(R1 R2^{-1}) = n/4, tr(R2 R1^{-1}) = 4n
        r1 = g1.entries
        r2 = g2.entries
        direct = 0.5 * (np.trace(r1 @ np.linalg.inv(r2)) + np.trace(r2 @ np.linalg.inv(r1))) - 2
        assert direct == pytest.approx(2.25, rel=1e-12)
        assert j_divergence(g1, g2) == pytest.approx(2.25, rel=1e-12)

    def test_matches_symmetrized_kl(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 50))
            r1, r2 = make_spd(rng, n), make_spd(rng, n)
            g1, g2 = gram_from_matrix(r1), gram_from_matrix(r2)
            expected = kl_oracle(r1, r2) + kl_oracle(r2, r1)
            assert j_divergence(g1, g2) == pytest.approx(expected, rel=1e-8)

    def test_symmetry_and_scale_invariance(self, rng):
        r1, r2 = make_spd(rng, 12), make_spd(rng, 12)
        g1, g2 = gram_from_matrix(r1), gram_from_matrix(r2)
        base = j_divergence(g1, g2)
        assert j_divergence(g2, g1) == pytest.approx(base, abs=1e-10)
        for c in (0.1, 1.0, 10.0):
            jc = j_divergence(gram_from_matrix(c * r1), gram_from_matrix(c * r2))
            assert jc == pytest.approx(base, abs=1e-9, rel=1e-9)

    def test_alpha_scale_family(self, rng):
        for alpha in (0.5, 2.0, 3.0):
            for n in (1, 25, 200):
                r2 = make_spd(rng, n)
                g2 = gram_from_matrix(r2)
                g1 = gram_from_matrix(alpha**2 * r2)
                expected = 0.5 * (alpha - 1 / alpha) ** 2 * n
                assert j_divergence(g1, g2) == pytest.approx(expected, rel=1e-8)

    def test_size_mismatch(self, rng):
        g1 = gram_from_matrix(make_spd(rng, 3))
        g2 = gram_from_matrix(make_spd(rng, 4))
        with pytest.raises(ContractError):
            j_divergence(g1, g2)


class TestJDivergenceTrace:
    def test_identical_kernels_zero(self):
        k = ExponentialKernel(sigma=1.0, beta=1.0)
        trace = j_divergence_trace(k, k, dyadic_interval_designs(16))
        np.testing.assert_array_equal(trace.values, 0.0)

    def test_brownian_scaling_linear(self):
        designs = dyadic_interval_designs(128)
        trace = j_divergence_trace(BrownianKernel(1.0), BrownianKernel(2.0), designs)
        np.testing.assert_allclose(trace.values, 1.125 * np.array(trace.sizes), rtol=1e-12)
        assert trace.slope_estimate == pytest.approx(1.125, rel=1e-9)

    def test_striebel_pair_bounded(self):
        # matched microergodic products: sigma1^2 beta1 = sigma2^2 beta2 = 2
        k1 = ExponentialKernel(sigma=1.0, beta=2.0)
        k2 = ExponentialKernel(sigma=math.sqrt(2.0), beta=1.0)
        trace = j_divergence_trace(k1, k2, dyadic_interval_designs(512))
        assert np.all(np.diff(trace.values) >= -1e-9)
        assert trace.values[-1] < 1.0
        assert trace.values[-1] / trace.values[-2] < 1.05

    def test_monotone_along_nesting(self, rng):
        designs = dyadic_interval_designs(32)
        for _ in range(5):
            k1 = ExponentialKernel(sigma=rng.uniform(0.5, 2), beta=rng.uniform(0.5, 3))
            k2 = ExponentialKernel(sigma=rng.uniform(0.5, 2), beta=rng.uniform(0.5, 3))
            trace = j_divergence_trace(k1, k2, designs)
            assert np.all(np.diff(trace.values) >= -1e-9)

    def test_non_nested_rejected(self):
        k = BrownianKernel(1.0)
        d1 = Design.interval([0.5, 1.0])
        d2 = Design.interval([0.25, 0.75, 1.0])
        with pytest.raises(ContractError):
            j_divergence_trace(k, k, [d1, d2])

    def test_one_factorization_per_kernel(self, monkeypatch):
        calls = []

        def recording_gram(kernel, design, *args, **kwargs):
            calls.append(len(design))
            return gram(kernel, design, *args, **kwargs)

        monkeypatch.setattr("gaussequiv.divergence.gram", recording_gram)
        k = np.arange(10.0)
        k1 = SchoenbergKernel(SchoenbergSpectrum(3, (k + 1.0) ** -2))
        k2 = SchoenbergKernel(SchoenbergSpectrum(3, (k + 1.0) ** -3))
        j_divergence_trace(k1, k2, fibonacci_sphere_designs([10, 20, 40]))
        assert calls == [40, 40]

    @pytest.mark.parametrize(
        "k1, k2",
        [
            (ExponentialKernel(1.0, 2.0), ExponentialKernel(2.0**0.5, 1.0)),
            (BrownianKernel(1.0), BrownianKernel(2.0)),
            (BrownianKernel(1.0), ExponentialKernel(1.0, 1.0)),
        ],
    )
    def test_markov_pairs_build_no_gram(self, monkeypatch, k1, k2):
        def forbidden(*args, **kwargs):
            raise AssertionError("Markov pairs must not build or factor a Gram matrix")

        monkeypatch.setattr("gaussequiv.divergence.gram", forbidden)
        monkeypatch.setattr("gaussequiv.kernels.dpotrf", forbidden)
        trace = j_divergence_trace(k1, k2, dyadic_interval_designs(128))
        assert np.all(trace.values > 0)

    @pytest.mark.parametrize("k2", [BrownianKernel(2.0), ExponentialKernel(1.0, 1.0)])
    def test_brownian_origin_singular_with_dense_pivot(self, k2):
        # X(0) = 0 for Brownian motion: the point t = 0 (design index 3) has
        # zero innovation variance and makes the dense pivot 3 fail
        design = Design.interval([0.5, 1.0, 0.25, 0.0, 0.75])
        designs = [design.prefix(m) for m in (2, 3, 4, 5)]
        with pytest.raises(SingularGramError) as dense:
            gram(BrownianKernel(1.0), designs[-1])
        with pytest.raises(SingularGramError) as markov:
            j_divergence_trace(BrownianKernel(1.0), k2, designs)
        assert markov.value.pivot == dense.value.pivot == 3

    def test_brownian_negative_time_rejected(self):
        designs = [Design.interval([0.5, -0.25][:m]) for m in (1, 2)]
        with pytest.raises(ContractError, match="t >= 0"):
            j_divergence_trace(ExponentialKernel(1.0, 1.0), BrownianKernel(1.0), designs)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_variance_rejected(self):
        # sigma^2 t overflows: both paths refuse instead of returning NaN
        k1, k2 = BrownianKernel(1e150), BrownianKernel(1.0)
        designs = [Design.interval([1e10, 2e10, 3e10][:m]) for m in (1, 2, 3)]
        with pytest.raises(ContractError, match="overflow"):
            j_divergence_trace(k1, k2, designs)
        with pytest.raises(ContractError, match="finite"):
            gram(k1, designs[-1])

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_j_rejected(self):
        # each variance is finite, but (v1 - v2)^2 / (2 v1 v2) is not
        k1, k2 = ExponentialKernel(1e150, 1.0), ExponentialKernel(1e-150, 1.0)
        with pytest.raises(ContractError, match="kernel variances overflow on this design"):
            j_divergence_trace(k1, k2, dyadic_interval_designs(8))

    def test_markov_matches_dense_at_2048(self):
        # the mixed pair exercises every AR term: rho differs and var1 grows
        k1, k2 = BrownianKernel(1.5), ExponentialKernel(1.0, 3.0)
        designs = dyadic_interval_designs(2048, (0.0, 2.0))
        trace = j_divergence_trace(k1, k2, designs)
        for d, value in zip(designs[::3], trace.values[::3]):
            want = j_divergence(gram(k1, d), gram(k2, d))
            assert value == pytest.approx(want, rel=1e-9)

    def test_dyadic_ou_trace_to_2_pow_20_non_decreasing(self):
        designs = dyadic_interval_designs(2**20)
        k1, k2 = ExponentialKernel(1.0, 2.0), ExponentialKernel(2.0**0.5, 1.0)
        values = j_divergence_trace(k1, k2, designs).values
        assert np.all(np.diff(values) >= 0.0)
        assert values[-1] == pytest.approx(0.625, rel=1e-4)

    def test_schoenberg_matches_per_design(self):
        k = np.arange(10.0)
        a = (k + 1.0) ** -2
        k1 = SchoenbergKernel(SchoenbergSpectrum(3, a))
        k2 = SchoenbergKernel(SchoenbergSpectrum(3, a * (1.0 + 1.0 / (k + 1.0))))
        designs = fibonacci_sphere_designs([10, 20, 40])
        trace = j_divergence_trace(k1, k2, designs)
        expected = [j_divergence(gram(k1, d), gram(k2, d)) for d in designs]
        np.testing.assert_allclose(trace.values, expected, rtol=1e-9)

    def test_singular_reports_first_failing_pivot(self):
        # rank-4 spherical kernels (degrees 0 and 1 on S^2) meet a 5-point design
        k1 = SchoenbergKernel(SchoenbergSpectrum(3, np.array([1.0, 1.0])))
        k2 = SchoenbergKernel(SchoenbergSpectrum(3, np.array([2.0, 1.0])))
        with pytest.raises(SingularGramError) as err:
            j_divergence_trace(k1, k2, fibonacci_sphere_designs([2, 3, 4, 5]))
        assert err.value.pivot == 4


class TestDichotomyDiagnostic:
    def test_zero_trace_equivalence(self):
        trace = DivergenceTrace((2, 4, 8, 16), np.zeros(4), 0.0)
        assert dichotomy_diagnostic(trace).label is VerdictLabel.EQUIVALENCE

    def test_linear_growth_orthogonality(self):
        sizes = (2, 4, 8, 16, 32)
        values = 1.125 * np.array(sizes)
        trace = DivergenceTrace(sizes, values, 1.125)
        verdict = dichotomy_diagnostic(trace)
        assert verdict.label is VerdictLabel.ORTHOGONALITY
        assert verdict.statistic == pytest.approx(1.125)

    def test_striebel_pair_equivalence(self):
        k1 = ExponentialKernel(sigma=1.0, beta=2.0)
        k2 = ExponentialKernel(sigma=math.sqrt(2.0), beta=1.0)
        trace = j_divergence_trace(k1, k2, dyadic_interval_designs(512))
        assert dichotomy_diagnostic(trace).label is VerdictLabel.EQUIVALENCE

    def test_short_trace_rejected(self):
        trace = DivergenceTrace((2, 4, 8), np.zeros(3), 0.0)
        with pytest.raises(ContractError):
            dichotomy_diagnostic(trace)

    def test_inconclusive_band(self):
        # ratio 1.2 sits between the thresholds
        sizes = (2, 4, 8, 16)
        values = np.array([1.0, 1.1, 1.2, 1.44])
        trace = DivergenceTrace(sizes, values, 0.02)
        assert dichotomy_diagnostic(trace).label is VerdictLabel.INCONCLUSIVE


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        trace = DivergenceTrace((2, 4), np.array([1.0, 2.0]), 0.5)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,J,slope_estimate"
        assert lines[1] == "2,1.0,0.5"

    def test_json_with_verdict(self):
        trace = DivergenceTrace((2, 4, 8, 16), np.zeros(4), 0.0)
        verdict = dichotomy_diagnostic(trace)
        payload = trace_to_json(trace, verdict)
        encoded = json.dumps(payload)
        decoded = json.loads(encoded)
        assert decoded["verdict"]["label"] == "EquivalenceIndicated"
        assert decoded["sizes"] == [2, 4, 8, 16]
