import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import gaussequiv
from gaussequiv import ContractError
from gaussequiv.designs import (
    _halton,
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

    @pytest.mark.parametrize(
        "domain", [(0.0,), (0.0, 1.0, 5.0), (1.0, 0.0), (0.0, float("inf")), "01", [[0.0], [1.0]]]
    )
    def test_rejects_domain_other_than_two_increasing_numbers(self, domain):
        with pytest.raises(ContractError):
            dyadic_interval_points(4, domain)


class TestHalton:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 12])
    @pytest.mark.parametrize("n", [0, 1, 4, 1000])
    def test_equals_scipy_unscrambled_halton(self, n, d):
        # scipy's generator, with the all-zero first point skipped, is the oracle
        ref = qmc.Halton(d=d, scramble=False)
        ref.fast_forward(1)
        expected = ref.random(n)
        got = _halton(n, d)
        assert got.shape == expected.shape == (n, d)
        assert got.tobytes() == expected.tobytes()

    def test_package_does_not_import_scipy_stats(self):
        script = (
            "import sys, numpy as np\n"
            "import gaussequiv as g\n"
            "y = np.sin(np.arange(12.0))\n"
            "family = lambda th: g.ExponentialKernel(sigma=float(th[0]), beta=float(th[1]))\n"
            "problem = g.LikelihoodProblem(family, g.equispaced_interval_design(12), y)\n"
            "g.fit_mle(problem, g.ParamSpace([0.1, 0.1], [10.0, 10.0]))\n"
            "g.designs.sphere_sequence(8, 4)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        src = str(Path(gaussequiv.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestSphereSequence:
    # SHA-256 of sphere_sequence(512, d).tobytes(); d = 9 sums each row norm
    # over more than 8 coordinates, where numpy's summation order follows the
    # memory layout of the Halton points
    DIGESTS = {
        3: "03639bc2688c6f92e14b9f656d1420cd381768925ab8dcd9d42807d796f81666",
        4: "888faf42191d3724ed10ca0f58cf9917ab4d957c0b9803be34ee962a6e3e1c13",
        9: "4edbd03a6e11889fa92c30a7f8a14b40e45505d52e655eda0a0742f3d50244c8",
    }

    @pytest.mark.parametrize("d", sorted(DIGESTS))
    def test_pinned_digest(self, d):
        assert hashlib.sha256(sphere_sequence(512, d).tobytes()).hexdigest() == self.DIGESTS[d]

    def test_d3_equals_scalar_loop(self):
        # reference: the Fibonacci lattice one point at a time, with scalar math
        n = 4096
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        expected = np.empty((n, 3))
        for i, u in enumerate(_halton(n, 1)[:, 0], start=1):
            z = 1.0 - 2.0 * float(u)
            r = np.sqrt(max(0.0, 1.0 - z * z))
            theta = 2.0 * np.pi * ((i * golden) % 1.0)
            expected[i - 1] = (r * np.cos(theta), r * np.sin(theta), z)
        assert sphere_sequence(n, 3).tobytes() == expected.tobytes()

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

    def test_fractional_counts_rejected(self):
        # the CLI's integer rule: 4.5 is not 4 or 5 points
        with pytest.raises(ContractError, match="n must be an integer"):
            sphere_sequence(4.5)
        with pytest.raises(ContractError, match="sizes must be an integer"):
            fibonacci_sphere_designs([10.7, 20])
        with pytest.raises(ContractError, match="sphere_dim must be an integer"):
            sphere_sequence(10, 3.5)

    def test_integral_float_counts_read_as_integers(self):
        assert sphere_sequence(16.0).tobytes() == sphere_sequence(16).tobytes()
        assert sphere_sequence(16, 4.0).tobytes() == sphere_sequence(16, 4).tobytes()
        floats, ints = fibonacci_sphere_designs([10.0, 20.0]), fibonacci_sphere_designs([10, 20])
        assert [d.coords.tobytes() for d in floats] == [d.coords.tobytes() for d in ints]


# the two count lists of the library, read by one rule
COUNT_LISTS = {
    "sizes": fibonacci_sphere_designs,
    "n_grid": lambda n_grid: gaussequiv.ExperimentConfig(n_grid=n_grid, replicates=20, seed=1),
}


@pytest.mark.parametrize("key", COUNT_LISTS)
@pytest.mark.parametrize(
    "bad, message",
    [
        (6, "nonempty list of counts"),
        ([], "nonempty list of counts"),
        ([0, 1], ">= 1, not 0"),
        ([3, 3], "strictly increasing counts >= 1"),
        ([2.5], "an integer"),
        ([True], "array of JSON numbers"),
    ],
    ids=["bare-number", "empty", "zero", "repeated", "fraction", "bool"],
)
def test_count_list_rule(key, bad, message):
    with pytest.raises(ContractError, match=f"{key} must be .*{message}"):
        COUNT_LISTS[key](bad)


class TestEquispaced:
    def test_endpoints_included(self):
        d = equispaced_interval_design(5, (0.0, 1.0))
        np.testing.assert_allclose(d.coords[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_bad_domain(self):
        with pytest.raises(ContractError):
            equispaced_interval_design(5, (1.0, 1.0))

    def test_integer_rule_for_interval_counts(self):
        with pytest.raises(ContractError, match="n must be an integer"):
            equispaced_interval_design(5.5)
        with pytest.raises(ContractError, match="max_size must be an integer"):
            dyadic_interval_points(16.5)
        assert equispaced_interval_design(5.0).coords.tobytes() == equispaced_interval_design(5).coords.tobytes()
        assert [len(d) for d in dyadic_interval_designs(16.0)] == [2, 4, 8, 16]

    @pytest.mark.parametrize("domain", [(0.0,), (0.0, 1.0, 5.0), (float("nan"), 1.0), None])
    def test_rejects_domain_other_than_two_increasing_numbers(self, domain):
        with pytest.raises(ContractError):
            equispaced_interval_design(5, domain)
