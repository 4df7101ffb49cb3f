import hashlib

import numpy as np
import pytest
from scipy.special import eval_gegenbauer

from gaussequiv import (
    BrownianKernel,
    ContractError,
    CovarianceKernel,
    Design,
    ExponentialKernel,
    Geometry,
    SchoenbergKernel,
    SchoenbergSpectrum,
    SingularGramError,
    eval_kernel,
    gegenbauer_normalized,
    gram,
    gram_from_matrix,
    harmonic_dimension,
    kernel_from_json,
    kernel_to_json,
)
from gaussequiv.designs import sphere_sequence

from conftest import make_spd, random_unit_vectors


class TestEvalKernel:
    def test_brownian_direct(self):
        k = BrownianKernel(sigma=2.0)
        assert eval_kernel(k, 0.3, 0.7) == 4.0 * 0.3

    def test_exponential_diagonal(self):
        k = ExponentialKernel(sigma=1.0, beta=1.0)
        assert eval_kernel(k, 0.4, 0.4) == 1.0

    def test_schoenberg_diagonal(self):
        # R(t, t) = a(0) h(0) + a(1) h(1) = 1 + 3 with h(k) = 2k+1 for d = 3
        spectrum = SchoenbergSpectrum(3, np.array([1.0, 1.0, 0.0]))
        k = SchoenbergKernel(spectrum)
        t = np.array([0.0, 0.0, 1.0])
        assert eval_kernel(k, t, t) == pytest.approx(4.0, rel=1e-12)

    def test_symmetry_exact(self, rng):
        kernels = [
            BrownianKernel(sigma=1.7),
            ExponentialKernel(sigma=0.8, beta=2.3),
        ]
        for k in kernels:
            for _ in range(50):
                s, t = rng.uniform(0, 2), rng.uniform(0, 2)
                assert eval_kernel(k, s, t) == eval_kernel(k, t, s)
        spectrum = SchoenbergSpectrum(3, rng.uniform(0.1, 1.0, 6))
        k = SchoenbergKernel(spectrum)
        for u, v in zip(random_unit_vectors(rng, 50, 3), random_unit_vectors(rng, 50, 3)):
            assert eval_kernel(k, u, v) == eval_kernel(k, v, u)

    def test_geometry_mismatch(self):
        k = BrownianKernel(sigma=1.0)
        with pytest.raises(ContractError):
            eval_kernel(k, -0.1, 0.5)
        with pytest.raises(ContractError):
            eval_kernel(k, np.array([0.1, 0.2]), 0.5)
        ks = SchoenbergKernel(SchoenbergSpectrum(3, np.array([1.0])))
        with pytest.raises(ContractError):
            eval_kernel(ks, np.array([0.5, 0.5, 0.5]), np.array([0.0, 0.0, 1.0]))


class TestGram:
    def test_brownian_two_points(self):
        g = gram(BrownianKernel(sigma=1.0), Design.interval([0.5, 1.0]))
        np.testing.assert_allclose(g.entries, [[0.5, 0.5], [0.5, 1.0]], rtol=0)

    def test_single_point(self):
        g = gram(ExponentialKernel(sigma=2.0, beta=1.0), Design.interval([0.3]))
        assert g.entries[0, 0] == 4.0
        assert g.chol[0, 0] == 2.0

    def test_exponential_three_points_spd(self):
        g = gram(ExponentialKernel(sigma=1.0, beta=1.0), Design.interval([0.0, 0.5, 1.0]))
        assert g.entries[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-15)
        assert g.entries[0, 2] == pytest.approx(np.exp(-1.0), rel=1e-15)
        # brute-force oracle: all eigenvalues of the dense symmetric matrix positive
        assert np.all(np.linalg.eigvalsh(g.entries) > 0)

    def test_reconstruction(self, rng):
        for n in (1, 3, 10, 40):
            a = make_spd(rng, n)
            g = gram_from_matrix(a)
            err = np.max(np.abs(g.chol @ g.chol.T - g.entries)) / np.max(np.abs(g.entries))
            assert err <= 1e-10
            sign, logdet = np.linalg.slogdet(g.entries)
            assert sign > 0
            assert g.log_det == pytest.approx(logdet, rel=1e-10)

    def test_singular_reports_pivot(self):
        # rank-4 spherical kernel cannot produce an SPD matrix on 5 points
        spectrum = SchoenbergSpectrum(3, np.array([1.0, 1.0]))
        design = Design.on_sphere(sphere_sequence(5, 3))
        with pytest.raises(SingularGramError) as exc:
            gram(SchoenbergKernel(spectrum), design)
        assert exc.value.pivot == 4

    def test_gram_from_matrix_owns_one_copy(self, rng):
        a = make_spd(rng, 6)
        g = gram_from_matrix(a)
        assert a.flags.writeable
        assert not np.shares_memory(g.entries, a)
        entries, chol = g.entries.copy(), g.chol.copy()
        a[:] = 0.0
        np.testing.assert_array_equal(g.entries, entries)
        np.testing.assert_array_equal(g.chol, chol)

    def test_arrays_read_only(self, rng):
        grams = [
            gram_from_matrix(make_spd(rng, 4)),
            gram(ExponentialKernel(sigma=1.0, beta=1.0), Design.interval([0.0, 0.5, 1.0])),
        ]
        for g in grams:
            assert not g.entries.flags.writeable
            assert not g.chol.flags.writeable

    def test_gram_takes_kernel_matrix_uncopied(self):
        held = np.array([[2.0, 0.5], [0.5, 1.0]])

        class HeldKernel(CovarianceKernel):
            geometry = Geometry.euclidean(1)

            def matrix(self, coords):
                return held

        assert gram(HeldKernel(), Design.interval([0.1, 0.4])).entries is held

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            gram_from_matrix(np.array([[1.0, 0.2], [0.1, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a symmetric NaN pair passes max|a - a'| > tol, which is False for NaN
        with pytest.raises(ContractError, match="finite"):
            gram_from_matrix(np.array([[1.0, bad], [bad, 1.0]]))


class TestDesign:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ContractError):
            Design.interval([0.5, 0.5])
        with pytest.raises(ContractError):
            Design.interval([0.0, 0.3, -0.0])
        with pytest.raises(ContractError):
            Design(np.array([[0.1, 0.2], [0.3, 0.2], [0.1, 0.2]]), Geometry.euclidean(2))
        assert len(Design(np.array([[0.1, 0.2], [0.2, 0.1]]), Geometry.euclidean(2))) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ContractError, match="finite"):
            Design.interval([0.5, bad])

    def test_sphere_norm_enforced(self):
        with pytest.raises(ContractError):
            Design.on_sphere(np.array([[1.0, 0.0, 0.1]]))

    def test_prefix(self):
        d = Design.interval([0.1, 0.2, 0.3])
        assert d.prefix(2).is_prefix_of(d)
        assert not d.is_prefix_of(d.prefix(2))

    def test_from_json_rejects_malformed_points(self):
        geometry = {"kind": "euclidean", "dim": 1}
        # a 2-coordinate point is not two scalar points
        with pytest.raises(ContractError):
            Design.from_json({"geometry": geometry, "points": [[0.1, 0.2]]})
        # ragged rows are a contract violation, not a NumPy shape error
        with pytest.raises(ContractError):
            Design.from_json({"geometry": geometry, "points": [[0.1], [0.2, 0.3]]})
        # strings, booleans and null are not coordinates
        for points in (["0.1", "0.2"], [[0.1], [True]], [[0.1], None]):
            with pytest.raises(ContractError, match="points"):
                Design.from_json({"geometry": geometry, "points": points})

    def test_sphere_needs_ambient_dimension_two(self):
        # the rule holds for every construction path, not only Geometry.sphere
        with pytest.raises(ContractError, match="ambient dimension >= 2"):
            Geometry("sphere", 1)
        with pytest.raises(ContractError, match="ambient dimension >= 2"):
            Design.from_json({"geometry": {"kind": "sphere", "dim": 1}, "points": [[1.0], [-1.0]]})
        assert Geometry.sphere(2) == Geometry("sphere", 2)

    def test_dimension_follows_the_integer_rule(self):
        geometry = Geometry("euclidean", 1.0)
        assert geometry == Geometry.euclidean(1) and type(geometry.dim) is int
        assert Design([0.1, 0.2], geometry).to_json()["geometry"] == {"kind": "euclidean", "dim": 1}
        for dim in (1.5, True, "1"):
            with pytest.raises(ContractError, match="dim must be"):
                Geometry("euclidean", dim)

    def test_json_roundtrip(self, rng):
        d = Design.on_sphere(random_unit_vectors(rng, 4, 3))
        d2 = Design.from_json(d.to_json())
        np.testing.assert_array_equal(d.coords, d2.coords)
        assert d2.geometry == Geometry.sphere(3)


class TestHarmonicDimension:
    def test_base_cases(self):
        assert harmonic_dimension(3, 0) == 1
        assert harmonic_dimension(3, 2) == 5  # C(4,2) - C(2,2) = 6 - 1
        assert harmonic_dimension(4, 1) == 4  # C(4,3) - 0

    def test_d3_closed_form(self):
        for k in range(101):
            assert harmonic_dimension(3, k) == 2 * k + 1

    def test_invalid_inputs(self):
        with pytest.raises(ContractError):
            harmonic_dimension(2, 1)
        with pytest.raises(ContractError):
            harmonic_dimension(3, -1)


class TestGegenbauerNormalized:
    def test_degree_zero(self):
        assert gegenbauer_normalized(0, 5, 0.3) == 1.0

    def test_value_at_one_exact(self):
        for d in (3, 4, 5, 7):
            for k in (1, 2, 10, 37):
                assert gegenbauer_normalized(k, d, 1.0) == 1.0

    def test_legendre_p2(self):
        # oracle: P2(x) = (3 x^2 - 1) / 2
        x = 0.5
        assert gegenbauer_normalized(2, 3, x) == pytest.approx((3 * x**2 - 1) / 2, abs=1e-15)

    def test_against_scipy(self, rng):
        for _ in range(30):
            k = int(rng.integers(0, 20))
            d = int(rng.integers(3, 7))
            x = float(rng.uniform(-1, 1))
            lam = (d - 2) / 2
            expected = eval_gegenbauer(k, lam, x) / eval_gegenbauer(k, lam, 1.0)
            assert gegenbauer_normalized(k, d, x) == pytest.approx(expected, abs=1e-10)

    def test_bounded_on_grid(self):
        x = np.linspace(-1.0, 1.0, 10_000)
        for d in (3, 4, 5):
            for k in range(51):
                assert np.max(np.abs(gegenbauer_normalized(k, d, x))) <= 1.0

    def test_domain_error(self):
        with pytest.raises(ContractError):
            gegenbauer_normalized(3, 3, 1.0 + 1e-9)
        # slack below the tolerance is clamped, not rejected
        assert gegenbauer_normalized(3, 3, 1.0 + 1e-13) == 1.0

    def test_returned_arrays_not_overwritten(self):
        # the recurrence reuses its buffers; a returned array must not be one of them
        x = np.linspace(-1.0, 1.0, 101)
        x_bytes = x.tobytes()
        values = [gegenbauer_normalized(k, 5, x) for k in range(8)]
        snapshots = [v.tobytes() for v in values]
        for k in range(8):
            gegenbauer_normalized(k, 5, x)
        assert [v.tobytes() for v in values] == snapshots
        assert x.tobytes() == x_bytes
        for i, u in enumerate(values):
            assert not np.shares_memory(u, x)
            assert not any(np.shares_memory(u, v) for v in values[i + 1 :])


class TestSchoenbergMatrix:
    # SHA-256 of the matrix on sphere_sequence(1024, 3) for the spectrum
    # (k+1)^-3 (1 + 0.7/(k+1)), k = 0..60
    DIGEST = "b53746211e6a5fc00cca59ad38a78f575b2d8449e902f38e4c6212bbb821f71a"

    def test_pinned_digest(self):
        k = np.arange(61, dtype=float)
        a2 = (k + 1.0) ** -3
        spectrum = SchoenbergSpectrum(3, a2 * (1.0 + 0.7 / (k + 1.0)))
        m = SchoenbergKernel(spectrum).matrix(sphere_sequence(1024, 3))
        assert (m == m.T).all()
        assert hashlib.sha256(m.tobytes()).hexdigest() == self.DIGEST

    def test_equals_gegenbauer_sum_over_many_blocks(self):
        coords = sphere_sequence(700, 4)
        coeffs = 1.0 / (np.arange(16.0) + 1.0) ** 2
        spectrum = SchoenbergSpectrum(4, coeffs)
        dots = np.clip((coords[:, None, :] * coords[None, :, :]).sum(axis=-1), -1.0, 1.0)
        expected = 0.0
        for k, (a, h) in enumerate(zip(coeffs, spectrum.harmonic_dims)):
            expected = expected + a * h * gegenbauer_normalized(k, 4, dots)
        m = SchoenbergKernel(spectrum).matrix(coords)
        assert (m == m.T).all()
        assert m.tobytes() == expected.tobytes()


class TestSchoenbergSpectrum:
    def test_validation(self):
        with pytest.raises(ContractError):
            SchoenbergSpectrum(2, np.array([1.0]))
        with pytest.raises(ContractError):
            SchoenbergSpectrum(3, np.array([1.0, -0.1]))

    def test_sphere_dim_follows_the_integer_rule(self):
        read, exact = SchoenbergSpectrum(3.0, [1.0, 0.5]), SchoenbergSpectrum(3, [1.0, 0.5])
        assert type(read.sphere_dim) is int
        np.testing.assert_array_equal(read.harmonic_dims, exact.harmonic_dims)
        for d in (3.5, True, "3"):
            with pytest.raises(ContractError, match="sphere_dim must be"):
                SchoenbergSpectrum(d, np.array([1.0]))

    def test_diagnostics(self):
        spectrum = SchoenbergSpectrum(3, np.array([2.0, 0.0, 1.0]))
        assert spectrum.truncation == 2
        assert spectrum.positive_count == 2
        assert spectrum.trace_value == 2.0 + 5.0  # h(0) a(0) + h(2) a(2)
        assert spectrum.tail_term == 5.0

    def test_diagonal_consistency(self, rng):
        """R(t, t) equals sum_k h(k) a(k) for random unit vectors."""
        spectrum = SchoenbergSpectrum(3, rng.uniform(0.0, 1.0, 9))
        k = SchoenbergKernel(spectrum)
        for u in random_unit_vectors(rng, 100, 3):
            assert eval_kernel(k, u, u) == pytest.approx(spectrum.trace_value, rel=1e-10)


class TestKernelJson:
    def test_roundtrip(self):
        for k in (
            BrownianKernel(sigma=2.0),
            ExponentialKernel(sigma=1.0, beta=3.0),
            SchoenbergKernel(SchoenbergSpectrum(4, np.array([1.0, 0.25]))),
        ):
            assert kernel_to_json(kernel_from_json(kernel_to_json(k))) == kernel_to_json(k)

    def test_unknown_variant(self):
        with pytest.raises(ContractError):
            kernel_from_json({"variant": "matern"})

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
    def test_non_finite_or_nonpositive_parameters_rejected(self, bad):
        for make in (
            lambda: BrownianKernel(sigma=bad),
            lambda: ExponentialKernel(sigma=bad, beta=1.0),
            lambda: ExponentialKernel(sigma=1.0, beta=bad),
        ):
            with pytest.raises(ContractError, match="finite and strictly positive"):
                make()

    def test_sigma_whose_square_overflows_rejected(self):
        for make in (lambda: BrownianKernel(sigma=1e200), lambda: ExponentialKernel(sigma=1e200, beta=1.0)):
            with pytest.raises(ContractError, match="with a finite square"):
                make()

    @pytest.mark.parametrize("bad", ["1.5", True, None, [1.5], 10**400], ids=["str", "bool", "null", "list", "huge"])
    def test_sigma_not_a_json_number_rejected(self, bad):
        with pytest.raises(ContractError, match="sigma"):
            kernel_from_json({"variant": "brownian", "sigma": bad})

    def test_numpy_scalars_round_trip(self):
        k = ExponentialKernel(sigma=np.float64(1.5), beta=np.float64(2.0))
        assert kernel_from_json(kernel_to_json(k)) == k
        geometry = {"kind": "euclidean", "dim": np.int64(1)}
        design = Design.from_json({"geometry": geometry, "points": np.arange(1.0, 4.0)})
        np.testing.assert_array_equal(design.coords, [[1.0], [2.0], [3.0]])

    def test_non_integral_sphere_dimension_rejected(self):
        with pytest.raises(ContractError, match="d must be an integer"):
            kernel_from_json({"variant": "schoenberg", "d": 3.5, "coeffs": [1.0]})
        assert kernel_from_json({"variant": "schoenberg", "d": 3.0, "coeffs": [1.0]}).spectrum.sphere_dim == 3
