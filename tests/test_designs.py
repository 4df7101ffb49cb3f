import numpy as np
import pytest

from gaussequiv import ContractError
from gaussequiv.designs import (
    dyadic_interval_designs,
    dyadic_interval_points,
    equispaced_interval_design,
    fibonacci_sphere_designs,
    is_prefix_nested,
    sphere_sequence,
)


class TestDyadicInterval:
    def test_first_points(self):
        pts = dyadic_interval_points(8)
        np.testing.assert_allclose(pts[:4], [0.5, 1.0, 0.25, 0.75], rtol=0)

    def test_prefixes_enumerate_full_grids(self):
        pts = dyadic_interval_points(16)
        for n in (2, 4, 8, 16):
            assert set(pts[:n]) == {i / n for i in range(1, n + 1)}

    def test_left_endpoint_excluded(self):
        assert 0.0 not in dyadic_interval_points(32)

    def test_nested(self):
        designs = dyadic_interval_designs(64)
        assert [len(d) for d in designs] == [2, 4, 8, 16, 32, 64]
        assert is_prefix_nested(designs)
        # equal consecutive designs are not a strict extension
        assert not is_prefix_nested([designs[2], designs[2]])

    def test_domain_mapping(self):
        pts = dyadic_interval_points(4, domain=(1.0, 3.0))
        np.testing.assert_allclose(sorted(pts), [1.5, 2.0, 2.5, 3.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ContractError):
            dyadic_interval_points(12)


class TestSphereSequence:
    def test_unit_norms(self):
        for d in (3, 4, 5):
            pts = sphere_sequence(200, d)
            np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_prefix_stable(self):
        np.testing.assert_array_equal(sphere_sequence(10, 3), sphere_sequence(25, 3)[:10])
        np.testing.assert_array_equal(sphere_sequence(10, 4), sphere_sequence(25, 4)[:10])

    def test_points_distinct(self):
        pts = sphere_sequence(500, 3)
        assert np.unique(pts, axis=0).shape[0] == 500

    def test_quasi_uniform_mean(self):
        # centroid of a uniform-ish sample should be near the origin
        pts = sphere_sequence(1000, 3)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.05

    def test_nested_designs(self):
        designs = fibonacci_sphere_designs([20, 40, 80])
        assert is_prefix_nested(designs)
        with pytest.raises(ContractError):
            fibonacci_sphere_designs([40, 40])


class TestEquispaced:
    def test_endpoints_included(self):
        d = equispaced_interval_design(5, (0.0, 1.0))
        np.testing.assert_allclose(d.coords[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_bad_domain(self):
        with pytest.raises(ContractError):
            equispaced_interval_design(5, (1.0, 1.0))
