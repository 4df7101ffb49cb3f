import hashlib

import numpy as np
import pytest

from gaussequiv import (
    BrownianKernel,
    ContractError,
    ExponentialKernel,
    SampleBatch,
    batch_to_csv,
    derive_seed,
    empirical_covariance,
    equispaced_interval_design,
    gram,
    gram_from_matrix,
    sample_paths,
    sampler,
)

from conftest import make_spd


class TestSamplePaths:
    def test_identity_coordinate_means(self):
        m = 100_000
        batch = sample_paths(gram_from_matrix(np.eye(4)), m, 11)
        assert np.max(np.abs(batch.samples.mean(axis=0))) <= 4 / np.sqrt(m)

    def test_scalar_variance(self):
        m = 100_000
        batch = sample_paths(gram_from_matrix(np.array([[4.0]])), m, 5)
        var = float(np.mean(batch.samples**2))
        assert abs(var - 4.0) <= 0.05 * 4.0

    def test_fixed_seed_reproducible(self):
        g = gram_from_matrix(np.eye(3))
        b1 = sample_paths(g, 10, 777)
        b2 = sample_paths(g, 10, 777)
        np.testing.assert_array_equal(b1.samples, b2.samples)

    def test_scaling_linearity_exact(self, rng):
        # gram scaled by 4 has factor scaled by exactly 2, so samples double
        a = make_spd(rng, 5)
        g1 = gram_from_matrix(a)
        g4 = gram_from_matrix(4.0 * a)
        b1 = sample_paths(g1, 20, 99)
        b4 = sample_paths(g4, 20, 99)
        np.testing.assert_array_equal(b4.samples, 2.0 * b1.samples)

    def test_zero_replicates_rejected(self):
        with pytest.raises(ContractError):
            sample_paths(gram_from_matrix(np.eye(2)), 0, 1)

    def test_fractional_seed_rejected(self):
        # not read as the seed 7
        with pytest.raises(ContractError, match="seed must be an integer"):
            sample_paths(gram_from_matrix(np.eye(2)), 3, 7.9)

    def test_integral_float_seed_and_count(self):
        g = gram_from_matrix(np.eye(2))
        batch = sample_paths(g, 3.0, 7.0)
        assert batch.samples.tobytes() == sample_paths(g, 3, 7).samples.tobytes()
        assert type(batch.seed) is int and batch.seed == 7

    @pytest.mark.blas_pin
    def test_seeded_draw_digest_at_any_thread_count(self):
        # the factor (600**3) and the product (400 * 600**2) are both above
        # 512**3, where an unpinned call would run on the caller's count
        design = equispaced_interval_design(600, (0.0, 1.0))
        batch = sampler._seeded_draw(ExponentialKernel(1.0, 1.0), design, 400, 5)
        digest = hashlib.sha256(batch.samples.tobytes()).hexdigest()
        assert digest == "f622e3462b2533f287096d57699a09782b1b17fea98c96a0098e8c0358a1f9e8"


class TestEmpiricalCovariance:
    def test_zero_batch(self):
        batch = SampleBatch(samples=np.zeros((5, 3)), seed=0)
        np.testing.assert_array_equal(empirical_covariance(batch), np.zeros((3, 3)))

    def test_identity_off_diagonals(self):
        m = 100_000
        batch = sample_paths(gram_from_matrix(np.eye(4)), m, 21)
        emp = empirical_covariance(batch)
        off = emp - np.diag(np.diag(emp))
        assert np.max(np.abs(off)) <= 0.05

    def test_brownian_within_standard_errors(self):
        design = equispaced_interval_design(8, (1 / 8, 1.0))
        g = gram(BrownianKernel(sigma=1.0), design)
        m = 20_000
        emp = empirical_covariance(sample_paths(g, m, 31))
        r = g.entries
        se = np.sqrt((np.outer(np.diag(r), np.diag(r)) + r**2) / m)
        assert np.max(np.abs(emp - r) / se) <= 5.0

    def test_exponential_within_standard_errors(self):
        design = equispaced_interval_design(8)
        g = gram(ExponentialKernel(sigma=1.0, beta=1.0), design)
        m = 20_000
        emp = empirical_covariance(sample_paths(g, m, 32))
        r = g.entries
        se = np.sqrt((np.outer(np.diag(r), np.diag(r)) + r**2) / m)
        assert np.max(np.abs(emp - r) / se) <= 5.0

    @pytest.mark.parametrize(
        "samples, seed, message",
        [
            ([[1.0, "2"], [3.0, 4.0]], 1, "samples must be an array of JSON numbers"),
            (np.zeros(3), 1, "samples must have shape"),
            (np.zeros((2, 3)), -1, "seed must be >= 0"),
            (np.zeros((2, 3)), True, "seed must be a JSON number"),
        ],
    )
    def test_batch_fields_checked_when_built(self, samples, seed, message):
        with pytest.raises(ContractError, match=message):
            SampleBatch(samples, seed)

    def test_batch_stores_a_read_only_copy(self):
        samples = np.zeros((2, 3))
        batch = SampleBatch([[0, 1, 2], [3, 4, 5]], 2.0)
        assert batch.samples.dtype == float and type(batch.seed) is int and batch.seed == 2
        assert not batch.samples.flags.writeable
        batch = SampleBatch(samples, 0)
        samples[0, 0] = 1.0
        assert batch.samples[0, 0] == 0.0

    def test_single_replicate_rejected(self):
        batch = SampleBatch(samples=np.zeros((1, 3)), seed=0)
        with pytest.raises(ContractError):
            empirical_covariance(batch)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, 50) == derive_seed(7, 50)
        assert derive_seed(7, 50) != derive_seed(7, 100)
        assert derive_seed(7, 50) != derive_seed(8, 50)

    def test_integer_rule(self):
        assert derive_seed(7.0, 50.0) == derive_seed(7, 50)
        for base, part in [(7.9, 50), (7, 50.5)]:
            with pytest.raises(ContractError, match="must be an integer"):
                derive_seed(base, part)

    @pytest.mark.parametrize("base, part", [(-1, 3), (7, -1)])
    def test_negative_seed_rejected(self, base, part):
        with pytest.raises(ContractError, match="must be >= 0"):
            derive_seed(base, part)


class TestCsvExport:
    def test_one_replicate_per_row(self, tmp_path):
        g = gram_from_matrix(np.eye(3))
        batch = sample_paths(g, 4, 1)
        path = tmp_path / "samples.csv"
        batch_to_csv(batch, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        row = [float(v) for v in lines[0].split(",")]
        np.testing.assert_allclose(row, batch.samples[0], rtol=0)
