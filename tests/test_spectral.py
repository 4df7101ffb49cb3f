import math

import numpy as np
import pytest

from gaussequiv import (
    AtomMismatchError,
    AtomicSpectralMeasure,
    ConstantRatio,
    ContractError,
    PowerLawRatio,
    RatioModel,
    SchoenbergSpectrum,
    Verdict,
    atomic_measure_from_spectrum,
    check_shared_atoms,
    chow_sum,
    criterion_to_csv,
    harmonic_dimensions,
    spectra_from_ratio_model,
    sphere_equivalence_sum,
)
from gaussequiv.spectral import ratio_model_from_json


class TestSphereEquivalenceSum:
    def test_equal_spectra(self):
        s = SchoenbergSpectrum(3, np.array([1.0, 0.5, 0.25]))
        res = sphere_equivalence_sum(s, s, 2)
        np.testing.assert_array_equal(res.partial_sums, 0.0)
        assert res.verdict is Verdict.FINITE
        assert res.tail_bound == 0.0

    def test_power_ratio_converges(self):
        # terms (2k+1) / (k+1)^4; oracle: direct summation of the explicit series
        model = PowerLawRatio(c=1.0, s=2.0)
        s1, s2 = spectra_from_ratio_model(model, 3, 10_000)
        res = sphere_equivalence_sum(s1, s2, 10_000, tail_model=model)
        ks = np.arange(10_001, dtype=float)
        oracle = float(np.sum((2 * ks + 1) / (ks + 1) ** 4))
        assert res.final == pytest.approx(oracle, rel=1e-12)
        assert res.final < 2.0
        assert res.verdict is Verdict.FINITE
        assert 0 < res.tail_bound < 1e-6

    def test_constant_ratio_diverges(self):
        ks = 20
        a2 = np.ones(ks + 1)
        s1 = SchoenbergSpectrum(3, 4.0 * a2)
        s2 = SchoenbergSpectrum(3, a2)
        res = sphere_equivalence_sum(s1, s2, ks, tail_model=ConstantRatio(alpha=4.0))
        assert res.final == pytest.approx(9.0 * (ks + 1) ** 2, rel=1e-12)
        assert res.verdict is Verdict.DIVERGENT

    def test_support_mismatch(self):
        s1 = SchoenbergSpectrum(3, np.array([1.0, 1.0, 1.0]))
        s2 = SchoenbergSpectrum(3, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(AtomMismatchError):
            sphere_equivalence_sum(s1, s2, 2)
        with pytest.raises(AtomMismatchError):
            sphere_equivalence_sum(s2, s1, 2)

    def test_zero_over_zero_skipped(self):
        s1 = SchoenbergSpectrum(3, np.array([1.0, 0.0, 2.0]))
        s2 = SchoenbergSpectrum(3, np.array([1.0, 0.0, 1.0]))
        res = sphere_equivalence_sum(s1, s2, 2)
        assert res.terms[1] == 0.0
        assert res.final == pytest.approx(5.0, rel=1e-12)

    def test_partial_sums_monotone_and_scale_invariant(self, rng):
        a1 = rng.uniform(0.1, 1.0, 30)
        a2 = rng.uniform(0.1, 1.0, 30)
        res = sphere_equivalence_sum(SchoenbergSpectrum(3, a1), SchoenbergSpectrum(3, a2), 29)
        assert np.all(np.diff(res.partial_sums) >= 0)
        scaled = sphere_equivalence_sum(
            SchoenbergSpectrum(3, 7.5 * a1), SchoenbergSpectrum(3, 7.5 * a2), 29
        )
        np.testing.assert_allclose(scaled.partial_sums, res.partial_sums, rtol=1e-12)

    def test_truncation_below_spectrum_length(self):
        # only degrees k <= last_k enter; longer stored spectra are fine
        s1 = SchoenbergSpectrum(3, np.array([2.0, 1.0, 1.0, 5.0]))
        s2 = SchoenbergSpectrum(3, np.array([1.0, 1.0, 1.0, 1.0]))
        res = sphere_equivalence_sum(s1, s2, 1)
        assert len(res.terms) == 2
        assert res.final == pytest.approx(1.0, rel=1e-12)  # h(0) (1 - 2)^2

    def test_last_degree_follows_the_integer_rule(self):
        s1 = SchoenbergSpectrum(3, np.array([1.0, 2.0, 1.0]))
        s2 = SchoenbergSpectrum(3, np.array([1.0, 1.0, 1.0]))
        exact, read = sphere_equivalence_sum(s1, s2, 2), sphere_equivalence_sum(s1, s2, 2.0)
        np.testing.assert_array_equal(read.indices, exact.indices)
        np.testing.assert_array_equal(read.partial_sums, exact.partial_sums)
        assert (read.final, read.verdict, read.tail_bound) == (exact.final, exact.verdict, exact.tail_bound)
        for last_k in (2.5, True, "2"):
            with pytest.raises(ContractError, match="K must be"):
                sphere_equivalence_sum(s1, s2, last_k)

    def test_ratio_model_spectra_follow_the_integer_rule(self):
        model = PowerLawRatio(c=1.0, s=2.0)
        exact, read = spectra_from_ratio_model(model, 3, 4), spectra_from_ratio_model(model, 3.0, 4.0)
        for a, b in zip(exact, read):
            assert type(b.sphere_dim) is int
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
        with pytest.raises(ContractError, match="K must be an integer"):
            spectra_from_ratio_model(model, 3, 4.5)

    def test_dimension_mismatch(self):
        s1 = SchoenbergSpectrum(3, np.array([1.0]))
        s2 = SchoenbergSpectrum(4, np.array([1.0]))
        with pytest.raises(ContractError):
            sphere_equivalence_sum(s1, s2, 0)


class TestChowSum:
    def test_equal_measures(self):
        m = AtomicSpectralMeasure(("a", "b"), np.array([1.0, 2.0]), np.array([1, 3]))
        res = chow_sum(m, m, 2)
        assert res.final == 0.0
        assert res.verdict is Verdict.FINITE

    def test_basel_series(self):
        """Unit dimensions with mass ratio 1 + 1/n: partial sums approach pi^2/6."""
        n = 100_000
        labels = tuple(f"a{i}" for i in range(1, n + 1))
        ratio = 1.0 + 1.0 / np.arange(1, n + 1)
        m1 = AtomicSpectralMeasure(labels, ratio, np.ones(n, dtype=int))
        m2 = AtomicSpectralMeasure(labels, np.ones(n), np.ones(n, dtype=int))
        res = chow_sum(m1, m2, n, tail_model=PowerLawRatio(c=1.0, s=1.0))
        assert abs(res.final - math.pi**2 / 6) < 1e-4
        assert res.verdict is Verdict.FINITE

    def test_matches_sphere_sum_on_induced_atoms(self):
        """Cross-module oracle: sphere atoms with dim h(k) and mass a(k) h(k)."""
        ks = np.arange(11, dtype=float)
        a2 = np.exp(-0.3 * ks)
        a1 = a2 * (1.0 + (ks + 1.0) ** (-2))
        s1 = SchoenbergSpectrum(3, a1)
        s2 = SchoenbergSpectrum(3, a2)
        sphere = sphere_equivalence_sum(s1, s2, 10)
        m1 = atomic_measure_from_spectrum(s1)
        m2 = atomic_measure_from_spectrum(s2)
        atoms = chow_sum(m1, m2, len(m1))
        np.testing.assert_allclose(atoms.terms, sphere.terms, atol=1e-12)
        np.testing.assert_allclose(atoms.partial_sums, sphere.partial_sums, atol=1e-12)

    def test_grenander_is_unit_dims(self, rng):
        """With all dimensions 1 the sum is exactly the unweighted criterion."""
        n = 50
        labels = tuple(f"x{i}" for i in range(n))
        r1 = rng.uniform(0.5, 2.0, n)
        r2 = rng.uniform(0.5, 2.0, n)
        m1 = AtomicSpectralMeasure(labels, r1, np.ones(n, dtype=int))
        m2 = AtomicSpectralMeasure(labels, r2, np.ones(n, dtype=int))
        res = chow_sum(m1, m2, n)
        expected = np.cumsum((1.0 - r1 / r2) ** 2)
        np.testing.assert_allclose(res.partial_sums, expected, rtol=1e-12)

    def test_label_mismatch(self):
        m1 = AtomicSpectralMeasure(("a", "b"), np.array([1.0, 1.0]), np.array([1, 1]))
        m2 = AtomicSpectralMeasure(("a", "c"), np.array([1.0, 1.0]), np.array([1, 1]))
        with pytest.raises(AtomMismatchError):
            chow_sum(m1, m2, 2)

    def test_atom_count_follows_the_integer_rule(self):
        m1 = AtomicSpectralMeasure(("a", "b"), np.array([1.0, 2.0]), np.array([1, 3]))
        m2 = AtomicSpectralMeasure(("a", "b"), np.array([1.0, 1.0]), np.array([1, 3]))
        exact, read = chow_sum(m1, m2, 2), chow_sum(m1, m2, 2.0)
        np.testing.assert_array_equal(read.indices, exact.indices)
        np.testing.assert_array_equal(read.partial_sums, exact.partial_sums)
        assert read.final == exact.final == 3.0
        for n_atoms in (True, 1.5, None):
            with pytest.raises(ContractError, match="N must be"):
                chow_sum(m1, m2, n_atoms)

    def test_too_few_atoms(self):
        m = AtomicSpectralMeasure(("a",), np.array([1.0]), np.array([1]))
        with pytest.raises(ContractError):
            chow_sum(m, m, 2)


class TestCheckSharedAtoms:
    def test_identical(self):
        m = AtomicSpectralMeasure(("a", "b"), np.array([1.0, 2.0]), np.array([1, 1]))
        assert check_shared_atoms(m, m)

    def test_extra_atom(self):
        m1 = AtomicSpectralMeasure(("a", "b"), np.array([1.0, 2.0]), np.array([1, 1]))
        m2 = AtomicSpectralMeasure(("a",), np.array([1.0]), np.array([1]))
        assert not check_shared_atoms(m1, m2)

    def test_permutation_invariant(self):
        m1 = AtomicSpectralMeasure(("a", "b"), np.array([1.0, 2.0]), np.array([1, 1]))
        m2 = AtomicSpectralMeasure(("b", "a"), np.array([5.0, 2.0]), np.array([2, 1]))
        assert check_shared_atoms(m1, m2)


class TestTailModels:
    def test_power_divergent_when_slow(self):
        model = PowerLawRatio(c=1.0, s=0.5)
        verdict, bound = model.tail(1.0, 2.0, 1000)
        assert verdict is Verdict.DIVERGENT
        assert bound is None

    def test_power_bound_covers_true_tail(self):
        # tail bound from the integral test must dominate the directly summed tail
        model = PowerLawRatio(c=1.0, s=2.0)
        _, bound = model.tail(1.0, 2.0, 500)
        ks = np.arange(501, 200_000, dtype=float)
        true_tail = float(np.sum((2 * ks + 1) / (ks + 1) ** 4))
        assert true_tail <= bound

    def test_harmonic_dimension_envelope(self):
        # h(k) <= 2 (k+1)^(d-2), the bound behind the sphere tail rule
        for d in (3, 4, 5, 6, 8):
            h = harmonic_dimensions(d, 400)
            ks = np.arange(401, dtype=float)
            assert np.all(h <= 2.0 * (ks + 1.0) ** (d - 2))

    def test_one_hook_for_both_sums(self):
        """Sphere sums ask tail(d - 2, 2, K); atom sums ask tail(0, weight bound, N)."""
        calls = []

        class Recording(RatioModel):
            def tail(self, power, scale, last):
                calls.append((power, scale, last))
                return super().tail(power, scale, last)

        s = SchoenbergSpectrum(4, np.ones(3))
        assert sphere_equivalence_sum(s, s, 2, tail_model=Recording()).verdict is Verdict.INCONCLUSIVE
        m = AtomicSpectralMeasure(("a", "b"), np.ones(2), np.array([1, 3]))
        assert chow_sum(m, m, 2, tail_model=Recording()).tail_bound is None
        chow_sum(m, m, 2, tail_model=Recording(), tail_weight_bound=5)
        assert calls == [(2.0, 2.0, 2), (0.0, 3.0, 2), (0.0, 5.0, 2)]

    def test_constant_trivial_case(self):
        assert ConstantRatio(alpha=1.0).tail(0.0, 1.0, 10)[0] is Verdict.FINITE
        assert ConstantRatio(alpha=2.0).tail(0.0, 1.0, 10)[0] is Verdict.DIVERGENT


class TestMeasureJson:
    def test_roundtrip(self):
        m = AtomicSpectralMeasure(("k0", "k1"), np.array([1.0, 3.0]), np.array([1, 3]))
        m2 = AtomicSpectralMeasure.from_json(m.to_json())
        assert m2.labels == m.labels
        np.testing.assert_array_equal(m2.masses, m.masses)
        np.testing.assert_array_equal(m2.dims, m.dims)

    def test_validation(self):
        with pytest.raises(ContractError):
            AtomicSpectralMeasure(("a", "a"), np.array([1.0, 1.0]), np.array([1, 1]))
        with pytest.raises(ContractError):
            AtomicSpectralMeasure(("a",), np.array([0.0]), np.array([1]))
        with pytest.raises(ContractError):
            AtomicSpectralMeasure(("a",), np.array([1.0]), np.array([0]))

    @pytest.mark.parametrize(
        "masses, dims", [([[1.0, 2.0]], [1]), ([1.0], [[1, 2]]), ([[1.0]], [[1]])]
    )
    def test_two_dimensional_arrays_rejected(self, masses, dims):
        with pytest.raises(ContractError):
            AtomicSpectralMeasure(("a",), masses, dims)


class TestInputValidation:
    """Non-finite masses and ratio parameters, fractional dimensions and wrong JSON types are rejected."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mass", math.inf), ("dim", 2.7), ("dim", math.inf),
            ("label", 1), ("label", None), ("mass", "2"), ("mass", False), ("dim", "2"), ("dim", True),
        ],
    )
    def test_atom_rejected(self, field, value):
        atom = {"label": "a", "mass": 1.0, "dim": 1, field: value}
        with pytest.raises(ContractError):
            AtomicSpectralMeasure.from_json({"atoms": [atom]})

    @pytest.mark.parametrize(
        "obj",
        [{"type": "power", "c": "1", "s": 2.0}, {"type": "power", "c": 1.0, "s": None}, {"type": "constant", "alpha": True}],
    )
    def test_ratio_model_not_json_number_rejected(self, obj):
        with pytest.raises(ContractError):
            ratio_model_from_json(obj)

    @pytest.mark.parametrize(
        "labels, masses, dims, message",
        [
            ((1, 2), [1.0, 1.0], [1, 1], "atom labels must be JSON strings"),
            (("a", None), [1.0, 1.0], [1, 1], "atom labels must be JSON strings"),
            (("a", 2.0), [1.0, 1.0], [1, 1], "atom labels must be JSON strings"),
            (("a", "b"), ["2", "1"], [1, 1], "mass must be an array of JSON numbers"),
            (("a", "b"), [1.0, None], [1, 1], "mass must be an array of JSON numbers"),
            (("a", "b"), [1.0, 1.0], ["1", 1], "dim must be an array of JSON numbers"),
        ],
    )
    def test_constructor_coerces_nothing(self, labels, masses, dims, message):
        with pytest.raises(ContractError, match=message):
            AtomicSpectralMeasure(labels, masses, dims)

    def test_numeric_string_labels_are_strings(self):
        # "1" is a JSON string, so it stays a valid label; only non-strings are refused
        m = AtomicSpectralMeasure(["1", "2"], [1.0, 2.0], [1, 1])
        assert m.labels == ("1", "2")
        assert AtomicSpectralMeasure.from_json(m.to_json()).labels == ("1", "2")

    def test_integral_float_dim_accepted(self):
        m = AtomicSpectralMeasure.from_json({"atoms": [{"label": "a", "mass": 1.0, "dim": 2.0}]})
        assert m.dims.dtype.kind == "i"
        np.testing.assert_array_equal(m.dims, [2])

    @pytest.mark.parametrize(
        "c, s", [(math.nan, 2.0), (1.0, math.nan), (math.inf, 2.0), (1.0, math.inf)]
    )
    def test_power_ratio_nonfinite_rejected(self, c, s):
        with pytest.raises(ContractError):
            PowerLawRatio(c=c, s=s)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 0.5])
    def test_tail_weight_bound_rejected(self, bound):
        m = AtomicSpectralMeasure(("a",), np.array([1.0]), np.array([1]))
        with pytest.raises(ContractError):
            chow_sum(m, m, 1, tail_model=PowerLawRatio(c=1.0, s=2.0), tail_weight_bound=bound)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_constant_ratio_nonfinite_rejected(self, alpha):
        with pytest.raises(ContractError):
            ConstantRatio(alpha=alpha)


class TestCriterionCsv:
    def test_header_and_rows(self, tmp_path):
        s = SchoenbergSpectrum(3, np.array([1.0, 2.0]))
        res = sphere_equivalence_sum(s, SchoenbergSpectrum(3, np.array([1.0, 1.0])), 1)
        path = tmp_path / "criterion.csv"
        criterion_to_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,term,partial_sum"
        assert lines[1].startswith("0,")
        assert len(lines) == 3
