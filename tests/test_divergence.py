import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dtrtri

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
    equispaced_interval_design,
    gaussian_logpdf,
    gram,
    gram_from_matrix,
    j_divergence,
    j_divergence_trace,
    trace_to_csv,
    trace_to_json,
)
from gaussequiv._blas import blas_scope
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(ContractError, match="right-hand side must be finite"):
            gaussian_logpdf(gram_from_matrix(np.eye(2)), [1.0, bad])


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

    @pytest.mark.blas_pin
    def test_value_is_the_two_solve_formula(self, rng):
        small, large = dyadic_interval_designs(64)[-1], dyadic_interval_designs(256)[-1]
        pairs = [
            (gram_from_matrix(make_spd(rng, 9)), gram_from_matrix(make_spd(rng, 9))),
            (gram(BrownianKernel(1.0), small), gram(BrownianKernel(2.0), small)),
            (gram(ExponentialKernel(1.0, 2.0), large), gram(ExponentialKernel(1.5, 1.0), large)),
        ]
        for g1, g2 in pairs:
            m12 = solve_triangular(g2.chol, g1.chol, lower=True)
            m21 = solve_triangular(g1.chol, g2.chol, lower=True)
            assert j_divergence(g1, g2) == 0.5 * (float(np.sum(m12 * m12)) + float(np.sum(m21 * m21))) - g1.n

    def test_one_solve_live_at_a_time(self):
        # each solve and its square are freed before the other solve is formed:
        # two n x n arrays above the inputs, where both solves at once make three
        n = 512
        design = equispaced_interval_design(n, (0.0, 1.0))
        g1, g2 = gram(ExponentialKernel(1.0, 1.0), design), gram(ExponentialKernel(1.0, 2.0), design)
        tracemalloc.start()
        try:
            j_divergence(g1, g2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8


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
        with pytest.raises(ContractError, match="need at least one design"):
            j_divergence_trace(k, k, [])

    @pytest.mark.blas_pin
    def test_dense_trace_is_the_solve_and_inverse_cumsum(self):
        # M12 = L2^-1 L1 by dtrsm and M21 = M12^-1 by dtrtri, bit for bit on the
        # one thread the library runs them on; the two-solve route
        # M21 = L1^-1 L2 agrees to 1e-12 relative
        k = np.arange(61.0)
        k1 = SchoenbergKernel(SchoenbergSpectrum(3, (k + 1.0) ** -3 * (1.0 + 0.7 / (k + 1.0))))
        k2 = SchoenbergKernel(SchoenbergSpectrum(3, (k + 1.0) ** -3))
        designs = fibonacci_sphere_designs([64, 128, 256, 512])
        trace = j_divergence_trace(k1, k2, designs)
        l1, l2 = gram(k1, designs[-1]).chol, gram(k2, designs[-1]).chol

        def cumsum(m12, m21):
            steps = 0.5 * (np.einsum("ij,ij->i", m12, m12) + np.einsum("ij,ij->i", m21, m21)) - 1.0
            return np.maximum(np.cumsum(steps)[np.array(trace.sizes) - 1], 0.0)

        with blas_scope():
            m12 = dtrsm(1.0, l2, l1, lower=1)
            m21, info = dtrtri(m12, lower=1)
        assert info == 0
        assert trace.values.tobytes() == cumsum(m12, m21).tobytes()
        two_solves = cumsum(solve_triangular(l2, l1, lower=True), solve_triangular(l1, l2, lower=True))
        np.testing.assert_allclose(trace.values, two_solves, rtol=1e-12, atol=0.0)

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

    def test_pair_checked_before_any_gram(self, monkeypatch):
        # an interval kernel second: the Schoenberg matrix is neither assembled nor factored
        calls = []

        def recording_gram(kernel, design):
            calls.append(type(kernel).__name__)
            return gram(kernel, design)

        monkeypatch.setattr("gaussequiv.divergence.gram", recording_gram)
        k1 = SchoenbergKernel(SchoenbergSpectrum(3, np.ones(10)))
        with pytest.raises(ContractError, match="ExponentialKernel acts on"):
            j_divergence_trace(k1, ExponentialKernel(1.0, 1.0), fibonacci_sphere_designs([10, 20, 40]))
        assert calls == []

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
        t = [0.5, 1.0, 0.25, 0.0, 0.75]
        designs = [Design.interval(t[:m]) for m in (2, 3, 4, 5)]
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

    def test_subclass_of_a_markov_kernel_keeps_its_ar_form(self):
        # a subclass is Markov by the isinstance rule, and its theta rows are its base's
        class Subclass(ExponentialKernel):
            pass

        designs = dyadic_interval_designs(16)
        sub = j_divergence_trace(Subclass(1.0, 2.0), Subclass(1.0, 1.0), designs).values
        base = j_divergence_trace(ExponentialKernel(1.0, 2.0), ExponentialKernel(1.0, 1.0), designs).values
        assert sub.tobytes() == base.tobytes() and np.all(base > 0)

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

    def test_sphere_dimension_mismatch_raised_by_the_second_kernel(self):
        k1 = SchoenbergKernel(SchoenbergSpectrum(3, np.ones(4)))
        k2 = SchoenbergKernel(SchoenbergSpectrum(4, np.ones(4)))
        message = "SchoenbergKernel acts on Geometry(kind='sphere', dim=4), not Geometry(kind='sphere', dim=3)"
        with pytest.raises(ContractError, match=re.escape(message)):
            j_divergence_trace(k1, k2, fibonacci_sphere_designs([4, 8]))

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sizes": ("2", "4", True, 16)}, "sizes must be an array of JSON numbers"),
            ({"sizes": (2, 4, 4, 16)}, "sizes must be strictly increasing"),
            ({"sizes": (2, 4, 8.5, 16)}, "sizes must be an integer"),
            ({"values": [0.0, 1.0, "2", 3.0]}, "values must be an array of JSON numbers"),
            ({"values": np.zeros(3)}, re.escape("values must have shape (4,)")),
            ({"slope_estimate": None}, "slope_estimate must be a JSON number"),
        ],
    )
    def test_trace_fields_checked_when_built(self, kwargs, message):
        fields = {"sizes": (2, 4, 8, 16), "values": np.zeros(4), "slope_estimate": 0.5, **kwargs}
        with pytest.raises(ContractError, match=message):
            DivergenceTrace(**fields)

    def test_trace_stores_a_read_only_copy(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        trace = DivergenceTrace([2, 4, 8.0, 16], values, 1)
        values[0] = 9.0
        assert trace.sizes == (2, 4, 8, 16) and trace.values[0] == 1.0 and trace.slope_estimate == 1.0
        assert not trace.values.flags.writeable

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
