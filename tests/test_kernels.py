import dataclasses
import gc
import hashlib
import math
import re
import weakref

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf
from scipy.special import eval_gegenbauer

import gaussequiv
from gaussequiv import (
    BrownianKernel,
    ContractError,
    CovarianceKernel,
    Design,
    ExponentialKernel,
    Geometry,
    GramMatrix,
    SchoenbergKernel,
    SchoenbergSpectrum,
    SingularGramError,
    eval_kernel,
    fibonacci_sphere_designs,
    gegenbauer_normalized,
    gram,
    gram_from_matrix,
    harmonic_dimension,
    harmonic_dimensions,
    is_prefix_nested,
    j_divergence_trace,
    kernel_from_json,
    rkhs_norm,
)
import gaussequiv.kernels as kernels
from gaussequiv._blas import blas_scope
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
            geometry = Geometry("euclidean", 1)

            def matrix(self, coords):
                return held

        assert gram(HeldKernel(), Design.interval([0.1, 0.4])).entries is held

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            gram_from_matrix(np.array([[1.0, 0.2], [0.1, 1.0]]))

    @pytest.mark.parametrize("entries", [[[1.0]], np.eye(2, dtype=int)], ids=["list", "int"])
    def test_entries_must_be_a_float_array(self, entries):
        with pytest.raises(ContractError, match="square float matrix"):
            GramMatrix(entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a symmetric NaN pair passes max|a - a'| > tol, which is False for NaN
        with pytest.raises(ContractError, match="finite"):
            gram_from_matrix(np.array([[1.0, bad], [bad, 1.0]]))

    def test_direct_construction_computes_its_factor(self):
        # chol and log_det cannot be passed in, so no GramMatrix holds a wrong factor
        with pytest.raises(TypeError):
            GramMatrix(entries=np.eye(2), chol=np.array([[1.0, 0.0], [5.0, -1.0]]), log_det=0.0)
        x = np.eye(2)
        g = GramMatrix(x)
        assert g.entries is x and not x.flags.writeable
        assert rkhs_norm(g, [1.0, 1.0]) == math.sqrt(2)
        with pytest.raises(SingularGramError):
            GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.blas_pin
    @pytest.mark.parametrize("kind", ["exponential", "brownian", "schoenberg", "schoenberg_prefix"])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1024])
    def test_factor_is_dpotrf_of_the_matrix(self, kind, n):
        # the factor of a.T's Fortran view is bitwise that of a; the prefix
        # kind factors a strided view of a matrix the kernel keeps; the oracle
        # runs on one thread, as the library's factor does
        spectrum = SchoenbergSpectrum(3, (np.arange(61.0) + 1.0) ** -3)
        if kind in ("exponential", "brownian"):
            kernel = ExponentialKernel(1.3, 2.0) if kind == "exponential" else BrownianKernel(1.3)
            design = Design.interval(np.arange(1, n + 1) / n)
        else:
            kernel = SchoenbergKernel(spectrum)
            design, whole = fibonacci_sphere_designs([n, 1030])
            kept = kernel.matrix(whole.coords) if kind == "schoenberg_prefix" else None
        x = kernel.matrix(design.coords)
        assert not x.flags.writeable
        if kind == "schoenberg_prefix":
            assert x.base is kept and (n == 1 or not x.flags.c_contiguous)
        before = x.tobytes()
        g = gram(kernel, design)
        assert x.tobytes() == before and g.entries.tobytes() == before
        with blas_scope():
            oracle = dpotrf(np.array(x), lower=1, clean=1)[0]
        assert g.chol.tobytes() == oracle.tobytes()

    @pytest.mark.blas_pin
    def test_one_ulp_asymmetry_factors_the_upper_triangle(self):
        a = np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]])
        a[0, 1] = np.nextafter(2.0, np.inf)
        upper, lower = np.triu(a) + np.triu(a, 1).T, np.tril(a) + np.tril(a, -1).T
        g = gram_from_matrix(a)
        assert g.chol.tobytes() == dpotrf(upper, lower=1, clean=1)[0].tobytes()
        assert g.chol.tobytes() != dpotrf(lower, lower=1, clean=1)[0].tobytes()
        np.testing.assert_array_equal(g.entries, a)

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_tiled_symmetry_check_reads_the_plain_formula(self, rng, monkeypatch, n):
        # entries in (-1, 1) make the tolerance SYMMETRY_RTOL itself: the check
        # passes at the plain max|a - a.T| and fails one float below it
        a = rng.uniform(-1.0, 1.0, (n, n))
        plain = float(np.max(np.abs(a - a.T)))
        monkeypatch.setattr(kernels, "SYMMETRY_RTOL", plain)
        kernels._require_symmetric(a, "a")
        monkeypatch.setattr(kernels, "SYMMETRY_RTOL", np.nextafter(plain, -1.0))
        with pytest.raises(ContractError, match="a must be symmetric"):
            kernels._require_symmetric(a, "a")
        for bad in (np.nan, np.inf):
            b = a.copy()
            b[-1, 0] = bad
            with pytest.raises(ContractError, match="a must be finite"):
                kernels._require_symmetric(b, "a")


class TestDesign:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ContractError):
            Design.interval([0.5, 0.5])
        with pytest.raises(ContractError):
            Design.interval([0.0, 0.3, -0.0])
        with pytest.raises(ContractError):
            Design(np.array([[0.1, 0.2], [0.3, 0.2], [0.1, 0.2]]), Geometry("euclidean", 2))
        assert len(Design(np.array([[0.1, 0.2], [0.2, 0.1]]), Geometry("euclidean", 2))) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ContractError, match="finite"):
            Design.interval([0.5, bad])

    def test_sphere_norm_enforced(self):
        with pytest.raises(ContractError):
            Design.on_sphere(np.array([[1.0, 0.0, 0.1]]))

    def test_prefix(self):
        d, head = Design.interval([0.1, 0.2, 0.3]), Design.interval([0.1, 0.2])
        assert is_prefix_nested([head, d])
        assert not is_prefix_nested([d, head])

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

    def test_from_json_rejects_a_non_object(self):
        with pytest.raises(ContractError, match=r"design must be a JSON object, not \[1, 2\]"):
            Design.from_json([1, 2])

    def test_empty_design_and_unknown_geometry_rejected(self):
        with pytest.raises(ContractError, match="at least one point"):
            Design([], Geometry("euclidean", 1))
        with pytest.raises(ContractError, match="unknown geometry kind 'torus'"):
            Geometry("torus", 2)

    def test_sphere_needs_ambient_dimension_two(self):
        with pytest.raises(ContractError, match="dim must be >= 2, not 1"):
            Geometry("sphere", 1)
        with pytest.raises(ContractError, match="dim must be >= 2, not 1"):
            Design.from_json({"geometry": {"kind": "sphere", "dim": 1}, "points": [[1.0], [-1.0]]})

    def test_dimension_follows_the_integer_rule(self):
        geometry = Geometry("euclidean", 1.0)
        assert geometry == Geometry("euclidean", 1) and type(geometry.dim) is int
        assert Design([0.1, 0.2], geometry).to_json()["geometry"] == {"kind": "euclidean", "dim": 1}
        for dim in (1.5, True, "1"):
            with pytest.raises(ContractError, match="dim must be"):
                Geometry("euclidean", dim)

    def test_json_roundtrip(self, rng):
        d = Design.on_sphere(random_unit_vectors(rng, 4, 3))
        d2 = Design.from_json(d.to_json())
        np.testing.assert_array_equal(d.coords, d2.coords)
        assert d2.geometry == Geometry("sphere", 3)


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

    def test_overflow_names_the_sphere_and_the_degree(self):
        # h(531) on S^499 is about 1.28e308; h(532) is past the largest float
        message = r"harmonic dimension of degree 532 on S\^499 \(d = 500\) exceeds a float"
        assert harmonic_dimensions(500, 531)[-1] == float(harmonic_dimension(500, 531)) < math.inf
        for last in (532, 1000):
            with pytest.raises(ContractError, match=message):
                harmonic_dimensions(500, last)
        with pytest.raises(ContractError, match=message):
            SchoenbergSpectrum(500, np.ones(1001)).harmonic_dims

    @pytest.mark.parametrize("d", range(3, 41))
    def test_exact_on_both_sides_of_the_int64_switch(self, d):
        def fits(k):  # the rule for an int64 recurrence: every partial product fits
            return math.comb(k + d - 1, d - 1) * (k + d) < 2**63

        # the largest K that fits; K + 1 runs the recurrence on Python ints
        last, past = 0, 1
        while fits(past):
            last, past = past, 2 * past
        while past - last > 1:
            mid = (last + past) // 2
            last, past = (mid, past) if fits(mid) else (last, mid)
        # c[m - (d-3)] = C(m, d-1) for m = d-3 .. K+d, so h(k) = c[k+2] - c[k]
        c = [math.comb(m, d - 1) for m in range(d - 3, last + d + 1)]
        expected = np.array([float(a - b) for a, b in zip(c[2:], c)])
        assert harmonic_dimensions(d, last).tobytes() == expected[:-1].tobytes()
        assert harmonic_dimensions(d, last + 1).tobytes() == expected.tobytes()


# the three special functions as functions of (d, k); one rule reads both
SPECIAL = {
    "harmonic_dimension": harmonic_dimension,
    "harmonic_dimensions": harmonic_dimensions,
    "gegenbauer_normalized": lambda d, k: gegenbauer_normalized(k, d, 0.5),
}


@pytest.mark.parametrize("name", SPECIAL)
class TestSphereDimensionAndDegree:
    @pytest.mark.parametrize("bad", [3.5, True, "3"], ids=["fraction", "bool", "str"])
    @pytest.mark.parametrize("which", ["d", "degree"])
    def test_non_counts_rejected(self, name, which, bad):
        d, k = (bad, 2) if which == "d" else (4, bad)
        with pytest.raises(ContractError, match=f"{which} must be"):
            SPECIAL[name](d, k)

    @pytest.mark.parametrize("which", ["d", "degree"])
    def test_count_past_a_float_rejected(self, name, which):
        d, k = (10**400, 2) if which == "d" else (4, 10**400)
        with pytest.raises(ContractError, match=f"{which} is too large for a float"):
            SPECIAL[name](d, k)

    @pytest.mark.parametrize("d, k", [(2, 1), (3, -1)])
    def test_out_of_range_rejected(self, name, d, k):
        with pytest.raises(ContractError):
            SPECIAL[name](d, k)

    def test_integral_floats_read_as_ints(self, name):
        got, want = SPECIAL[name](4.0, 2.0), SPECIAL[name](4, 2)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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

    def test_nan_argument_rejected(self):
        with pytest.raises(ContractError, match=re.escape("x must lie in [-1, 1]")):
            gegenbauer_normalized(2, 3, math.nan)
        with pytest.raises(ContractError, match="x must lie"):
            gegenbauer_normalized(2, 3, [0.5, math.nan])

    def test_empty_argument_gives_empty_values(self):
        values = gegenbauer_normalized(2, 3, [])
        assert isinstance(values, np.ndarray) and values.shape == (0,)

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

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8, 9, 12, 16])
    def test_dots_summed_coordinate_by_coordinate(self, monkeypatch, d):
        # bitwise the broadcast sum over the last axis while numpy adds d <= 7
        # terms in order; from d = 8 its unrolled sum pairs them otherwise, and
        # the two agree to a few ulp of 1, the largest |dot|
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 1 << 20)
        seen, real = [], kernels._gegenbauer_terms

        def recording(dim, x):
            seen.append(x.copy())
            return real(dim, x)

        monkeypatch.setattr(kernels, "_gegenbauer_terms", recording)
        coords = random_unit_vectors(np.random.default_rng(d), 300, d)
        SchoenbergKernel(SchoenbergSpectrum(d, [1.0, 1.0])).matrix(coords)
        (dots,) = seen
        broadcast = np.clip((coords[:, None, :] * coords[None, :, :]).sum(axis=-1), -1.0, 1.0)
        assert (dots == dots.T).all()
        if d <= 7:
            assert dots.tobytes() == broadcast.tobytes()
        else:
            assert np.max(np.abs(dots - broadcast)) <= 4 * np.spacing(1.0)


class TestKeptSchoenbergMatrix:
    SPECTRUM = SchoenbergSpectrum(3, 1.0 / (np.arange(9.0) + 1.0) ** 2)

    def test_prefix_is_a_read_only_view(self):
        k, coords = SchoenbergKernel(self.SPECTRUM), sphere_sequence(40, 3)
        whole = k.matrix(coords)
        head = k.matrix(coords[:25])
        assert not whole.flags.writeable and not head.flags.writeable
        assert head.base is whole
        assert head.tobytes() == SchoenbergKernel(self.SPECTRUM).matrix(coords[:25]).tobytes()

    def test_caller_writes_after_assembly(self):
        # the kernel keeps a copy of the coordinates, so a caller who writes to
        # their array afterwards gets the matrix of the new points
        k, coords = SchoenbergKernel(self.SPECTRUM), sphere_sequence(40, 3).copy()
        k.matrix(coords)
        coords[3] = coords[3, ::-1]
        moved = k.matrix(coords[:25])
        assert moved.base is None
        assert moved.tobytes() == SchoenbergKernel(self.SPECTRUM).matrix(coords[:25]).tobytes()

    @pytest.mark.parametrize(
        "nudge",
        [lambda c: np.nextafter(c, 2.0), lambda c: np.where(c == 0.0, -0.0, c)],
        ids=["one-ulp", "negative-zero"],
    )
    def test_other_bytes_are_assembled_fresh(self, nudge):
        k = SchoenbergKernel(self.SPECTRUM)
        coords = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]])
        whole = k.matrix(coords)
        changed = coords.copy()
        changed[1] = nudge(changed[1])
        assert changed.tobytes() != coords.tobytes()
        fresh = k.matrix(changed[:3])
        assert fresh.base is None and not np.shares_memory(fresh, whole)
        assert fresh.tobytes() == SchoenbergKernel(self.SPECTRUM).matrix(changed[:3]).tobytes()
        # the fresh assembly is kept now; the first design is assembled again
        assert k.matrix(coords[:2]).base is None

    def test_identity_unchanged_by_the_kept_matrix(self):
        k, twin = SchoenbergKernel(self.SPECTRUM), SchoenbergKernel(self.SPECTRUM)
        before = (repr(k), hash(k))
        k.matrix(sphere_sequence(30, 3))
        assert (repr(k), hash(k)) == before == (repr(twin), hash(twin))
        assert k == twin and {k, twin} == {k}
        assert [f.name for f in dataclasses.fields(k)] == ["spectrum"]
        described = kernel_from_json({"variant": "schoenberg", "d": 3, "coeffs": self.SPECTRUM.coeffs.tolist()})
        described.matrix(sphere_sequence(30, 3))
        assert repr(described) == repr(k)

    def test_kept_matrix_dies_when_replaced(self):
        k, coords = SchoenbergKernel(self.SPECTRUM), sphere_sequence(40, 3)
        kept = weakref.ref(k.matrix(coords))
        gc.collect()
        assert kept() is not None
        k.matrix(coords[::-1].copy())
        gc.collect()
        assert kept() is None

    def test_eval_kernel_after_a_large_assembly(self):
        k, coords = SchoenbergKernel(self.SPECTRUM), sphere_sequence(300, 3)
        m = k.matrix(coords)
        for i, j in [(0, 1), (0, 0), (7, 299), (150, 3), (1, 0)]:
            assert eval_kernel(k, coords[i], coords[j]) == m[i, j]

    @pytest.mark.parametrize("kernel", [BrownianKernel(1.5), ExponentialKernel(1.0, 2.0)])
    def test_markov_matrices_read_only(self, kernel):
        assert not kernel.matrix(np.array([[0.2], [0.5]])).flags.writeable


class TestSchoenbergMatricesTogether:
    """Several kernels assembled in one pass by ``kernels._schoenberg_matrices``."""

    SPECTRA = (
        SchoenbergSpectrum(3, 1.0 / (np.arange(9.0) + 1.0) ** 2),
        SchoenbergSpectrum(3, 1.0 / (np.arange(8.0) + 1.0) ** 3),
    )

    @pytest.fixture
    def recurrences(self, monkeypatch):
        """Small blocks, and the list of the blocks each Gegenbauer recurrence ran on."""
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 64)
        calls, real = [], kernels._gegenbauer_terms

        def counting(d, x):
            calls.append(x.shape)
            return real(d, x)

        monkeypatch.setattr(kernels, "_gegenbauer_terms", counting)
        return calls

    @staticmethod
    def alone(spectrum, coords):
        return SchoenbergKernel(spectrum).matrix(coords).tobytes()

    def test_kernel_passed_twice_is_assembled_once(self, recurrences):
        coords = sphere_sequence(40, 3)
        expected = self.alone(self.SPECTRA[0], coords)
        blocks = len(recurrences)
        k = SchoenbergKernel(self.SPECTRA[0])
        first, second = kernels._schoenberg_matrices((k, k), coords)
        assert first is second and first.base is None and not first.flags.writeable
        assert first.tobytes() == expected
        assert len(recurrences) == 2 * blocks > 2

    def test_equal_kernels_keep_their_own_matrices(self, recurrences):
        # kernels holding one spectrum object are equal and hash alike
        coords = sphere_sequence(40, 3)
        expected = self.alone(self.SPECTRA[0], coords)
        blocks = len(recurrences)
        k1, k2 = SchoenbergKernel(self.SPECTRA[0]), SchoenbergKernel(self.SPECTRA[0])
        assert k1 == k2 and k1 is not k2
        m1, m2 = kernels._schoenberg_matrices((k1, k2), coords)
        assert m1 is not m2 and m1.tobytes() == m2.tobytes() == expected
        assert k1.matrix(coords[:30]).base is m1 and k2.matrix(coords[:30]).base is m2
        assert len(recurrences) == 2 * blocks

    def test_kept_larger_design_is_served_not_assembled(self, recurrences):
        coords = sphere_sequence(40, 3)
        k1, k2 = SchoenbergKernel(self.SPECTRA[0]), SchoenbergKernel(self.SPECTRA[1])
        whole = k1.matrix(coords)
        expected = self.alone(self.SPECTRA[1], coords[:25])
        recurrences.clear()
        served, fresh = kernels._schoenberg_matrices((k1, k2), coords[:25])
        blocks = len(recurrences)
        assert served.base is whole and k1.matrix(coords).base is whole
        assert fresh.base is None and fresh.tobytes() == expected
        # only k2 was assembled: a lone assembly of that design runs as many recurrences
        recurrences.clear()
        SchoenbergKernel(self.SPECTRA[1]).matrix(coords[:25])
        assert len(recurrences) == blocks

    def test_trace_runs_one_recurrence_per_block_for_the_pair(self, recurrences):
        designs = fibonacci_sphere_designs([10, 20, 40])
        k1, k2 = SchoenbergKernel(self.SPECTRA[0]), SchoenbergKernel(self.SPECTRA[1])
        SchoenbergKernel(self.SPECTRA[0]).matrix(designs[-1].coords)
        blocks = len(recurrences)
        recurrences.clear()
        j_divergence_trace(k1, k2, designs)
        assert len(recurrences) == blocks > 1
        # both kernels now serve every prefix design from the kept matrix
        kept = [k.matrix(designs[-1].coords).base for k in (k1, k2)]
        assert all(k.matrix(d.coords).base is m for k, m in zip((k1, k2), kept) for d in designs)
        assert len(recurrences) == blocks
        assert [m.tobytes() for m in kept] == [self.alone(s, designs[-1].coords) for s in self.SPECTRA]

    def test_eval_kernel_keeps_the_kept_matrix(self):
        designs = fibonacci_sphere_designs([10, 20, 40])
        k1, k2 = SchoenbergKernel(self.SPECTRA[0]), SchoenbergKernel(self.SPECTRA[1])
        j_divergence_trace(k1, k2, designs)
        coords = designs[-1].coords
        whole = k1.matrix(coords).base
        # a pair that is not a prefix of the design, then one that is
        assert eval_kernel(k1, coords[3], coords[1]) == whole[3, 1]
        assert eval_kernel(k1, coords[0], coords[1]) == whole[0, 1]
        assert k1.matrix(designs[-2].coords).base is whole


class TestSchoenbergSpectrum:
    def test_validation(self):
        with pytest.raises(ContractError):
            SchoenbergSpectrum(2, np.array([1.0]))
        with pytest.raises(ContractError):
            SchoenbergSpectrum(3, np.array([1.0, -0.1]))
        with pytest.raises(ContractError, match="at least one coefficient"):
            SchoenbergSpectrum(3, [])
        with pytest.raises(ContractError, match="coefficients must be finite"):
            SchoenbergSpectrum(3, [1.0, np.nan])

    @pytest.mark.parametrize(
        "coeffs", [["1.5", "2"], [True, 0.5], [1.0, None], np.array([True, False]), np.array([1.0 + 0j])]
    )
    def test_coeffs_are_json_numbers(self, coeffs):
        with pytest.raises(ContractError, match="coeffs must be an array of JSON numbers"):
            SchoenbergSpectrum(3, coeffs)

    def test_numeric_arrays_read_unscanned(self):
        read = SchoenbergSpectrum(3, np.array([2, 0, 1]))
        np.testing.assert_array_equal(read.coeffs, SchoenbergSpectrum(3, [2.0, 0.0, 1.0]).coeffs)
        assert read.coeffs.dtype == float and not read.coeffs.flags.writeable

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
        np.testing.assert_array_equal(spectrum.harmonic_dims, [1.0, 3.0, 5.0])

    def test_diagonal_consistency(self, rng):
        """R(t, t) equals sum_k h(k) a(k) for random unit vectors."""
        spectrum = SchoenbergSpectrum(3, rng.uniform(0.0, 1.0, 9))
        k = SchoenbergKernel(spectrum)
        for u in random_unit_vectors(rng, 100, 3):
            assert eval_kernel(k, u, u) == pytest.approx(spectrum.harmonic_dims @ spectrum.coeffs, rel=1e-10)


class TestKernelJson:
    def test_roundtrip(self):
        assert kernel_from_json({"variant": "brownian", "sigma": 2.0}) == BrownianKernel(sigma=2.0)
        exponential = {"variant": "exponential", "sigma": 1.0, "beta": 3.0}
        assert kernel_from_json(exponential) == ExponentialKernel(sigma=1.0, beta=3.0)
        spectrum = kernel_from_json({"variant": "schoenberg", "d": 4, "coeffs": [1.0, 0.25]}).spectrum
        assert spectrum.sphere_dim == 4 and spectrum.coeffs.tolist() == [1.0, 0.25]

    def test_unknown_variant(self):
        with pytest.raises(ContractError):
            kernel_from_json({"variant": "matern"})
        with pytest.raises(ContractError, match="'variant' key"):
            kernel_from_json([])

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
        assert kernel_from_json({"variant": "exponential", "sigma": k.sigma, "beta": k.beta}) == k
        geometry = {"kind": "euclidean", "dim": np.int64(1)}
        design = Design.from_json({"geometry": geometry, "points": np.arange(1.0, 4.0)})
        np.testing.assert_array_equal(design.coords, [[1.0], [2.0], [3.0]])

    def test_non_integral_sphere_dimension_rejected(self):
        with pytest.raises(ContractError, match="sphere_dim must be an integer"):
            kernel_from_json({"variant": "schoenberg", "d": 3.5, "coeffs": [1.0]})
        assert kernel_from_json({"variant": "schoenberg", "d": 3.0, "coeffs": [1.0]}).spectrum.sphere_dim == 3


# every public call that takes a number or an array reads it as JSON numbers;
# each array holds the bad entry at a valid shape, which numpy would coerce
G2 = gram_from_matrix(np.eye(2))
PUBLIC_INPUTS = {
    "ParamSpace lower": ("lower", lambda bad: gaussequiv.ParamSpace([0.05, bad], [20.0, 20.0])),
    "ParamSpace upper": ("upper", lambda bad: gaussequiv.ParamSpace([0.05, 0.05], [20.0, bad])),
    "Design.interval": ("points", lambda bad: Design.interval([0.5, bad])),
    "Design.on_sphere": ("coords", lambda bad: Design.on_sphere([[1.0, 0.0, 0.0], [0.0, 0.0, bad]])),
    "rkhs_norm": ("v", lambda bad: gaussequiv.rkhs_norm(G2, [3.0, bad])),
    "rkhs_inner v": ("v", lambda bad: gaussequiv.rkhs_inner(G2, [3.0, bad], [1.0, 1.0])),
    "rkhs_inner w": ("w", lambda bad: gaussequiv.rkhs_inner(G2, [1.0, 1.0], [3.0, bad])),
    "reproducing_check": ("i", lambda bad: gaussequiv.reproducing_check(G2, [1.0, 1.0], bad)),
    "gaussian_logpdf": ("y", lambda bad: gaussequiv.gaussian_logpdf(G2, [0.5, bad])),
    "tensor_norm_finite": ("diff", lambda bad: gaussequiv.tensor_norm_finite(G2, [[0.0, bad], [bad, 0.0]])),
    "gram_from_matrix": ("entries", lambda bad: gram_from_matrix([[2.0, bad], [bad, 2.0]])),
    "LikelihoodProblem": (
        "data",
        lambda bad: gaussequiv.LikelihoodProblem(lambda th: ExponentialKernel(*th), Design.interval([0.25, 0.5]), [0.5, bad]),
    ),
    "gegenbauer_normalized": ("x", lambda bad: gegenbauer_normalized(2, 3, bad)),
    "ExponentialKernel sigma": ("sigma", lambda bad: ExponentialKernel(bad, 1.0)),
    "ExponentialKernel beta": ("beta", lambda bad: ExponentialKernel(1.0, bad)),
    "BrownianKernel": ("sigma", lambda bad: BrownianKernel(bad)),
}


@pytest.mark.parametrize("bad", ["1", True, None], ids=["str", "bool", "null"])
@pytest.mark.parametrize("site", PUBLIC_INPUTS)
def test_public_inputs_are_json_numbers(site, bad):
    key, call = PUBLIC_INPUTS[site]
    with pytest.raises(ContractError, match=f"^{key} must be"):
        call(bad)
