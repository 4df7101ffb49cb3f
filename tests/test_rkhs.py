import numpy as np
import pytest

from gaussequiv import (
    BrownianKernel,
    ContractError,
    Design,
    ExponentialKernel,
    SchoenbergKernel,
    SchoenbergSpectrum,
    gram,
    gram_from_matrix,
    harmonic_dimensions,
    reproducing_check,
    rkhs_inner,
    rkhs_norm,
    tensor_norm_finite,
)
from gaussequiv.designs import dyadic_interval_designs, fibonacci_sphere_designs

from conftest import make_spd


def brownian_gram_2pt():
    return gram(BrownianKernel(sigma=1.0), Design.interval([0.5, 1.0]))


class TestRkhsInner:
    def test_identity_orthogonality(self):
        g = gram_from_matrix(np.eye(2))
        assert rkhs_inner(g, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_representer_norm(self, rng):
        a = make_spd(rng, 6)
        g = gram_from_matrix(a)
        for i in (0, 3, 5):
            col = a[:, i]
            assert rkhs_inner(g, col, col) == pytest.approx(a[i, i], rel=1e-12)

    def test_brownian_ones_vector(self):
        # oracle: explicit 2x2 inverse of [[0.5, 0.5], [0.5, 1.0]] gives
        # [[4, -2], [-2, 2]], so (1,1)' R^{-1} (1,1) = 4 - 2 - 2 + 2 = 2
        g = brownian_gram_2pt()
        inv = np.linalg.inv(g.entries)
        v = np.ones(2)
        oracle = float(v @ inv @ v)
        assert oracle == pytest.approx(2.0, rel=1e-12)
        assert rkhs_inner(g, v, v) == pytest.approx(oracle, rel=1e-12)

    def test_bilinearity_and_symmetry(self, rng):
        g = gram_from_matrix(make_spd(rng, 8))
        for _ in range(25):
            v, w, u = rng.standard_normal((3, 8))
            a, b = rng.standard_normal(2)
            lhs = rkhs_inner(g, a * v + b * w, u)
            rhs = a * rkhs_inner(g, v, u) + b * rkhs_inner(g, w, u)
            assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)
            assert rkhs_inner(g, v, w) == pytest.approx(rkhs_inner(g, w, v), abs=1e-10)

    def test_cauchy_schwarz(self, rng):
        g = gram_from_matrix(make_spd(rng, 10))
        for _ in range(50):
            v, w = rng.standard_normal((2, 10))
            vw = rkhs_inner(g, v, w)
            assert vw**2 <= rkhs_inner(g, v, v) * rkhs_inner(g, w, w) * (1 + 1e-10)

    def test_dimension_mismatch(self):
        g = brownian_gram_2pt()
        with pytest.raises(ContractError):
            rkhs_inner(g, [1.0, 2.0, 3.0], [1.0, 2.0])


class TestRkhsNorm:
    def test_one_solve_equals_inner_product(self, rng):
        g = gram_from_matrix(make_spd(rng, 7))
        v = rng.standard_normal(7)
        assert rkhs_norm(g, v) == np.sqrt(rkhs_inner(g, v, v))

    def test_zero_function(self):
        d = Design.interval([0.5, 1.0])
        g = gram(BrownianKernel(sigma=1.0), d)
        assert rkhs_norm(g, np.zeros(2)) == 0.0

    def test_representer(self, rng):
        a = make_spd(rng, 5)
        g = gram_from_matrix(a)
        assert rkhs_norm(g, a[:, 2]) == pytest.approx(np.sqrt(a[2, 2]), rel=1e-12)

    def test_brownian_ones(self):
        d = Design.interval([0.5, 1.0])
        g = gram(BrownianKernel(sigma=1.0), d)
        assert rkhs_norm(g, np.ones(2)) == pytest.approx(np.sqrt(2.0), rel=1e-12)


class TestReproducingCheck:
    def test_scaled_basis_vector(self, rng):
        a = make_spd(rng, 4)
        g = gram_from_matrix(a)
        v = 3.0 * np.eye(4)[1]
        for i in range(4):
            assert reproducing_check(g, v, i) <= 1e-9

    def test_identity_constant(self):
        g = gram_from_matrix(np.eye(3))
        assert reproducing_check(g, np.array([3.0, 3.0, 3.0]), 0) == 0.0

    def test_random_property(self, rng):
        for _ in range(50):
            g = gram_from_matrix(make_spd(rng, 5))
            v = rng.standard_normal(5)
            i = int(rng.integers(0, 5))
            assert reproducing_check(g, v, i) <= 1e-9 * (1 + abs(v[i]))

    @pytest.mark.parametrize(
        "i, message",
        [(1.5, "i must be an integer"), (True, "i must be a JSON number"), (-1, "i must be >= 0"), (2, "i must be < 2")],
        ids=["fraction", "bool", "negative", "past-the-end"],
    )
    def test_index_is_a_count_below_n(self, i, message):
        # numpy would read True as a boolean index and reject 1.5 with an IndexError
        with pytest.raises(ContractError, match=message):
            reproducing_check(gram_from_matrix(np.eye(2)), [1.0, 2.0], i)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda g, v: rkhs_inner(g, [1.0, 2.0], v),
        lambda g, v: rkhs_norm(g, v),
        lambda g, v: reproducing_check(g, v, 0),
    ],
    ids=["rkhs_inner", "rkhs_norm", "reproducing_check"],
)
def test_non_finite_values_rejected(entry, bad):
    # the factor's solve checks nothing itself; half_solve is the one door
    with pytest.raises(ContractError, match="right-hand side must be finite"):
        entry(brownian_gram_2pt(), [bad, 1.0])


class TestTensorNormFinite:
    def test_zero_difference(self, rng):
        g = gram_from_matrix(make_spd(rng, 4))
        assert tensor_norm_finite(g, np.zeros((4, 4))) == 0.0

    def test_gram_itself(self, rng):
        g = gram_from_matrix(make_spd(rng, 6))
        assert tensor_norm_finite(g, g.entries) == pytest.approx(6.0, rel=1e-10)

    def test_scaled_gram(self, rng):
        # oracle by direct matrix arithmetic: trace((R^{-1} 3R)^2) = 9 n
        a = make_spd(rng, 3)
        g = gram_from_matrix(a)
        inv = np.linalg.inv(a)
        direct = np.trace(inv @ (3 * a) @ inv @ (3 * a))
        assert direct == pytest.approx(27.0, rel=1e-10)
        assert tensor_norm_finite(g, 3 * a) == pytest.approx(27.0, rel=1e-10)

    @pytest.mark.parametrize("read_only", [False, True])
    def test_ndarray_read_in_place_gives_the_list_value(self, rng, read_only):
        g = gram_from_matrix(make_spd(rng, 5))
        diff = make_spd(rng, 5) - make_spd(rng, 5)
        diff.flags.writeable = not read_only
        before = diff.tobytes()
        value = tensor_norm_finite(g, diff)
        assert type(value) is float and value == tensor_norm_finite(g, diff.tolist())
        assert diff.tobytes() == before and diff.flags.writeable is not read_only

    @pytest.mark.parametrize("layout", ["C", "F", "read_only", "strided"])
    @pytest.mark.parametrize("n", [7, 300])
    def test_every_layout_matches_the_solve_oracle(self, rng, layout, n):
        r = make_spd(rng, n)
        big = make_spd(rng, 2 * n) - make_spd(rng, 2 * n)
        block = big[:n, :n]
        diff = {"C": block.copy(), "F": np.asfortranarray(block), "read_only": block.copy(), "strided": big[::2, ::2]}[layout]
        diff.flags.writeable = layout != "read_only"
        before = diff.tobytes()
        value = tensor_norm_finite(gram_from_matrix(r), diff)
        m = np.linalg.solve(r, diff)
        assert value == pytest.approx(float(np.trace(m @ m)), rel=1e-12)
        assert diff.tobytes() == before and diff.flags.writeable is (layout != "read_only")

    def test_asymmetric_rejected(self, rng):
        g = gram_from_matrix(make_spd(rng, 3))
        d = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ContractError):
            tensor_norm_finite(g, d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, rng, bad):
        g = gram_from_matrix(make_spd(rng, 2))
        with pytest.raises(ContractError, match="difference matrix must be finite"):
            tensor_norm_finite(g, np.array([[1.0, bad], [bad, 1.0]]))

    def test_symmetry_relative_to_scale_as_for_grams(self):
        # a one-ulp asymmetry at scale 1e6 (1.16e-10) is within 1e-12 relative, as for gram_from_matrix
        a = 1e6 * np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        a[0, 1] = np.nextafter(a[1, 0], np.inf)
        assert 1e-10 < a[0, 1] - a[1, 0] < 1e-9
        g = gram_from_matrix(a)
        assert tensor_norm_finite(g, a) == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.blas_pin
    def test_one_ulp_asymmetry_reads_the_upper_triangle(self):
        # as for a Gram matrix: the value is that of the upper triangle mirrored
        g = gram_from_matrix(np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]]))
        diff = np.array([[1.0, 2.0, 0.1], [2.0, -0.5, 0.2], [0.1, 0.2, 0.7]])
        diff[0, 1] = np.nextafter(2.0, np.inf)
        upper, lower = np.triu(diff) + np.triu(diff, 1).T, np.tril(diff) + np.tril(diff, -1).T
        assert tensor_norm_finite(g, upper) != tensor_norm_finite(g, lower)
        assert tensor_norm_finite(g, diff) == tensor_norm_finite(g, upper)

    def test_nesting_monotone_interval(self):
        k1 = ExponentialKernel(sigma=1.0, beta=1.0)
        k2 = ExponentialKernel(sigma=1.2, beta=0.7)
        values = []
        for d in dyadic_interval_designs(32):
            g1 = gram(k1, d)
            diff = gram(k2, d).entries - g1.entries
            values.append(tensor_norm_finite(g1, diff))
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_sphere_consistency_bound(self):
        """Nested restriction norms stay below the spectral criterion value.

        Both spectra have full support up to degree 8; the Gram kernel is the
        one whose coefficients sit in the denominator of the criterion ratio.
        """
        ks = np.arange(9)
        b = 0.6**ks
        a = b * (1.0 + 0.4 / (ks + 1.0))
        h = harmonic_dimensions(3, 8)
        criterion = float(np.sum(h * (1.0 - a / b) ** 2))
        kb = SchoenbergKernel(SchoenbergSpectrum(3, b))
        ka = SchoenbergKernel(SchoenbergSpectrum(3, a))
        values = []
        for d in fibonacci_sphere_designs([15, 25, 35, 45]):
            gb = gram(kb, d)
            diff = gram(ka, d).entries - gb.entries
            values.append(tensor_norm_finite(gb, diff))
        assert all(y >= x - 1e-9 for x, y in zip(values, values[1:]))
        assert all(v <= criterion + 1e-6 for v in values)
