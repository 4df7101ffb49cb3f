import json
import os
from pathlib import Path

import numpy as np
import pytest

from gaussequiv import cli
from gaussequiv.mle import ConsistencyReport

HELP_DIR = Path(__file__).parent / "help"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


JDIV_BROWNIAN = {
    "kernel1": {"variant": "brownian", "sigma": 1.0},
    "kernel2": {"variant": "brownian", "sigma": 2.0},
    "designs": {"type": "dyadic_interval", "max_n": 64, "domain": [0, 1]},
}


def failing_experiment(config):
    """A stand-in for ``microergodic_experiment``: 15 of 40 fits failed."""
    ones = np.array([1.0, 1.0])
    return ConsistencyReport(
        n_grid=(6, 10), rmse_sigma2=ones, rmse_beta=ones, rmse_microergodic=ones, failed=(10, 5), replicates=20
    )


class TestJdiv:
    def test_brownian_scaling_orthogonal(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", JDIV_BROWNIAN)
        out = tmp_path / "out"
        assert run(["jdiv", "--config", cfg, "--out", out]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"]["label"] == "OrthogonalityIndicated"
        assert verdict["verdict"]["statistic"] == pytest.approx(1.125, rel=1e-9)
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "n,J,slope_estimate"
        assert len(lines) == 7  # sizes 2..64

    def test_identical_kernels_equivalent(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel1": {"variant": "exponential", "sigma": 1.0, "beta": 1.0},
                "kernel2": {"variant": "exponential", "sigma": 1.0, "beta": 1.0},
                "designs": {"type": "dyadic_interval", "max_n": 16},
            },
        )
        out = tmp_path / "out"
        assert run(["jdiv", "--config", cfg, "--out", out]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"]["label"] == "EquivalenceIndicated"
        assert all(v == 0.0 for v in verdict["values"])

    def test_striebel_pair_equivalent(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel1": {"variant": "exponential", "sigma": 1.0, "beta": 2.0},
                "kernel2": {"variant": "exponential", "sigma": 2.0**0.5, "beta": 1.0},
                "designs": {"type": "dyadic_interval", "max_n": 256},
            },
        )
        out = tmp_path / "out"
        assert run(["jdiv", "--config", cfg, "--out", out]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"]["label"] == "EquivalenceIndicated"

    def test_singular_gram_exit_code(self, tmp_path):
        # rank-4 spherical kernel meets a 5-point design
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "kernel1": {"variant": "schoenberg", "d": 3, "coeffs": [1.0, 1.0]},
                "kernel2": {"variant": "schoenberg", "d": 3, "coeffs": [2.0, 1.0]},
                "designs": {"type": "fibonacci_sphere", "sizes": [2, 3, 4, 5]},
            },
        )
        assert run(["jdiv", "--config", cfg, "--out", tmp_path / "out"]) == 3
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_unknown_kernel_variant_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", dict(JDIV_BROWNIAN, kernel1={"variant": "matern", "sigma": 1.0}))
        assert run(["jdiv", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "unknown kernel variant 'matern'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_j_exit_code(self, tmp_path, capsys):
        # finite variances whose J overflows: max_n 16 gives the verdict rule its 4 designs
        config = {
            "kernel1": {"variant": "exponential", "sigma": 1e150, "beta": 1.0},
            "kernel2": {"variant": "exponential", "sigma": 1e-150, "beta": 1.0},
            "designs": {"type": "dyadic_interval", "max_n": 16},
        }
        out = tmp_path / "out"
        assert run(["jdiv", "--config", write_config(tmp_path, "cfg.json", config), "--out", out]) == 2
        assert "kernel variances overflow on this design" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_sigma_exit_code(self, tmp_path):
        config = dict(JDIV_BROWNIAN, kernel2={"variant": "brownian", "sigma": float("inf")})
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert run(["jdiv", "--config", cfg, "--out", out]) == 2
        assert not (out / "trace.csv").exists()

    def test_overflowing_sigma_exit_code(self, tmp_path, capsys):
        config = dict(JDIV_BROWNIAN, kernel2={"variant": "exponential", "sigma": 1e200, "beta": 1.0})
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert run(["jdiv", "--config", cfg, "--out", out]) == 2
        assert "finite square" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_brownian_negative_time_exit_code(self, tmp_path, capsys):
        # the first design is {0, 1}, singular for Brownian motion; the
        # negative times of the largest design are reported, as by the dense path
        config = dict(JDIV_BROWNIAN, designs={"type": "dyadic_interval", "max_n": 16, "domain": [-1, 1]})
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["jdiv", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "t >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n, code", [(16.5, 2), (16.0, 0)])
    def test_integer_key_not_truncated(self, tmp_path, max_n, code):
        config = dict(JDIV_BROWNIAN, designs={"type": "dyadic_interval", "max_n": max_n})
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["jdiv", "--config", cfg, "--out", tmp_path / "out"]) == code

    def test_schoenberg_pair_orthogonal(self, tmp_path):
        # the dense trace of two Schoenberg kernels; the verdict needs at least four designs
        sphere = {"type": "fibonacci_sphere", "sizes": [10, 20, 40, 80], "sphere_dim": 3}
        kernel = {"variant": "schoenberg", "d": 3, "coeffs": [1.0] * 12}
        config = {"kernel1": kernel, "kernel2": dict(kernel, coeffs=[1.0, 0.5] * 6), "designs": sphere}
        assert run(["jdiv", "--config", write_config(tmp_path, "cfg.json", config), "--out", tmp_path]) == 0
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 5
        assert json.loads((tmp_path / "verdict.json").read_text())["verdict"]["label"] == "OrthogonalityIndicated"

    @pytest.mark.parametrize("domain", [[0], [0, 1, 5]])
    def test_domain_not_two_numbers_exit_code(self, tmp_path, domain):
        config = dict(JDIV_BROWNIAN, designs={"type": "dyadic_interval", "max_n": 16, "domain": domain})
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert run(["jdiv", "--config", cfg, "--out", out]) == 2
        assert not (out / "trace.csv").exists()


class TestSphere:
    def test_ratio_model_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"sphere_dim": 3, "K": 100, "ratio_model": {"type": "power", "c": 1.0, "s": 2.0}},
        )
        out = tmp_path / "out"
        assert run(["sphere", "--config", cfg, "--out", out]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] == "Finite"
        assert verdict["tail_bound"] > 0
        lines = (out / "criterion.csv").read_text().splitlines()
        assert lines[0] == "k,term,partial_sum"
        assert len(lines) == 102

    def test_explicit_spectra(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"sphere_dim": 3, "K": 2, "spectrum1": [1.0, 2.0, 1.0], "spectrum2": [1.0, 1.0, 1.0]},
        )
        out = tmp_path / "out"
        assert run(["sphere", "--config", cfg, "--out", out]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] == "Finite"
        assert verdict["final"] == pytest.approx(3.0)  # h(1) (1 - 2)^2

    def test_support_mismatch_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"sphere_dim": 3, "K": 2, "spectrum1": [1.0, 1.0, 1.0], "spectrum2": [1.0, 1.0, 0.0]},
        )
        assert run(["sphere", "--config", cfg, "--out", tmp_path / "out"]) == 4
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_constant_ratio_generates_spectra(self, tmp_path):
        config = {"sphere_dim": 3, "K": 5, "ratio_model": {"type": "constant", "alpha": 2.0}}
        out = tmp_path / "out"
        assert run(["sphere", "--config", write_config(tmp_path, "cfg.json", config), "--out", out]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        # h(k) (1 - 2)^2 summed over k <= 5: 1 + 3 + 5 + 7 + 9 + 11
        assert verdict == {"verdict": "Divergent", "final": 36.0, "tail_bound": None, "sphere_dim": 3, "K": 5}

    @pytest.mark.parametrize("last_k, code", [(2.9, 2), (2.0, 0)])
    def test_integer_key_not_truncated(self, tmp_path, capsys, last_k, code):
        config = {"sphere_dim": 3, "K": last_k, "spectrum1": [1.0, 2.0, 1.0], "spectrum2": [1.0, 1.0, 1.0]}
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["sphere", "--config", cfg, "--out", tmp_path / "out"]) == code
        if code:
            assert "K must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("last_k", [-1, -5])
    def test_negative_degree_of_ratio_model_exit_code(self, tmp_path, capsys, last_k):
        config = {"sphere_dim": 3, "K": last_k, "ratio_model": {"type": "power", "c": 1.0, "s": 2.0}}
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["sphere", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"K must be >= 0, not {last_k}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_harmonic_dimension_exit_code(self, tmp_path, capsys):
        config = {"sphere_dim": 500, "K": 1000, "ratio_model": {"type": "power", "c": 1.0, "s": 2.0}}
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["sphere", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "harmonic dimension of degree 532 on S^499 (d = 500) exceeds a float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_ratio_model_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "sphere_dim": 3,
                "K": 2,
                "spectrum1": [1.0, 2.0, 1.0],
                "spectrum2": [1.0, 1.0, 1.0],
                "ratio_model": {"type": "power", "c": float("nan"), "s": 2.0},
            },
        )
        assert run(["sphere", "--config", cfg, "--out", tmp_path / "out"]) == 2


class TestChow:
    def _measures(self, tmp_path):
        m1 = {
            "atoms": [
                {"label": "a1", "mass": 2.0, "dim": 1},
                {"label": "a2", "mass": 1.5, "dim": 3},
            ]
        }
        m2 = {
            "atoms": [
                {"label": "a1", "mass": 1.0, "dim": 1},
                {"label": "a2", "mass": 1.0, "dim": 3},
            ]
        }
        (tmp_path / "m1.json").write_text(json.dumps(m1))
        (tmp_path / "m2.json").write_text(json.dumps(m2))

    def test_run(self, tmp_path):
        self._measures(tmp_path)
        cfg = write_config(
            tmp_path, "cfg.json", {"measure1": "m1.json", "measure2": "m2.json", "N": 2}
        )
        out = tmp_path / "out"
        assert run(["chow", "--config", cfg, "--out", out]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["final"] == pytest.approx(1.0 + 3 * 0.25)
        lines = (out / "criterion.csv").read_text().splitlines()
        assert lines[0] == "n,term,partial_sum"

    @pytest.mark.parametrize("n_atoms, code", [(2.7, 2), (2.0, 0)])
    def test_integer_key_not_truncated(self, tmp_path, n_atoms, code):
        self._measures(tmp_path)
        cfg = write_config(
            tmp_path, "cfg.json", {"measure1": "m1.json", "measure2": "m2.json", "N": n_atoms}
        )
        assert run(["chow", "--config", cfg, "--out", tmp_path / "out"]) == code

    def test_label_mismatch_exit_code(self, tmp_path):
        self._measures(tmp_path)
        bad = {"atoms": [{"label": "zz", "mass": 1.0, "dim": 1}]}
        (tmp_path / "m2.json").write_text(json.dumps(bad))
        cfg = write_config(
            tmp_path, "cfg.json", {"measure1": "m1.json", "measure2": "m2.json", "N": 1}
        )
        assert run(["chow", "--config", cfg, "--out", tmp_path / "out"]) == 4

    @pytest.mark.parametrize("field, value", [("mass", float("inf")), ("dim", 2.7)])
    def test_invalid_atom_exit_code(self, tmp_path, field, value):
        self._measures(tmp_path)
        for name in ("m1.json", "m2.json"):
            bad = json.loads((tmp_path / name).read_text())
            bad["atoms"][1][field] = value
            (tmp_path / name).write_text(json.dumps(bad))
        cfg = write_config(
            tmp_path, "cfg.json", {"measure1": "m1.json", "measure2": "m2.json", "N": 2}
        )
        assert run(["chow", "--config", cfg, "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("dim", [1e19, 2**63])
    def test_dimension_past_int64_exit_code(self, tmp_path, capsys, dim):
        # an int64 cast would wrap these to negative weights
        self._measures(tmp_path)
        for name in ("m1.json", "m2.json"):
            bad = json.loads((tmp_path / name).read_text())
            bad["atoms"][1]["dim"] = dim
            (tmp_path / name).write_text(json.dumps(bad))
        cfg = write_config(tmp_path, "cfg.json", {"measure1": "m1.json", "measure2": "m2.json", "N": 2})
        assert run(["chow", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "atom dimensions must be integers in [1, 2**63)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dimension_past_a_float_runs(self, tmp_path):
        self._measures(tmp_path)
        for name in ("m1.json", "m2.json"):
            wide = json.loads((tmp_path / name).read_text())
            wide["atoms"][1]["dim"] = 2**53 + 1
            (tmp_path / name).write_text(json.dumps(wide))
        cfg = write_config(tmp_path, "cfg.json", {"measure1": "m1.json", "measure2": "m2.json", "N": 2})
        assert run(["chow", "--config", cfg, "--out", tmp_path / "out"]) == 0
        lines = (tmp_path / "out" / "criterion.csv").read_text().splitlines()
        assert lines[0] == "n,term,partial_sum" and len(lines) == 3
        assert sorted(os.listdir(tmp_path / "out")) == ["criterion.csv", "manifest.json", "verdict.json"]

    @pytest.mark.parametrize("atoms", [5, [5], [{"label": "a1", "dim": 1}]], ids=["number", "numbers", "no-mass"])
    def test_atoms_not_objects_with_three_keys_exit_code(self, tmp_path, capsys, atoms):
        self._measures(tmp_path)
        (tmp_path / "m2.json").write_text(json.dumps({"atoms": atoms}))
        cfg = write_config(tmp_path, "cfg.json", {"measure1": "m1.json", "measure2": "m2.json", "N": 2})
        assert run(["chow", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "atoms must be a list of JSON objects with 'label', 'mass' and 'dim' keys" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mass", None), ("mass", "x"), ("mass", [1, 2]), ("dim", None), ("dim", [1, 2]), ("label", ...),
            ("mass", "2"), ("dim", True),
        ],
    )
    def test_malformed_atom_exit_code(self, tmp_path, capsys, field, value):
        self._measures(tmp_path)
        for name in ("m1.json", "m2.json"):
            bad = json.loads((tmp_path / name).read_text())
            for atom in bad["atoms"]:
                if value is ...:
                    del atom[field]
                else:
                    atom[field] = value
            (tmp_path / name).write_text(json.dumps(bad))
        cfg = write_config(
            tmp_path, "cfg.json", {"measure1": "m1.json", "measure2": "m2.json", "N": 2}
        )
        assert run(["chow", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()


class TestSample:
    CONFIG = {
        "kernel": {"variant": "exponential", "sigma": 1.0, "beta": 1.0},
        "design": {"type": "equispaced_interval", "n": 6, "domain": [0, 1]},
        "replicates": 5,
        "seed": 42,
    }

    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", self.CONFIG)
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", out]) == 0
        rows = (out / "samples.csv").read_text().splitlines()
        assert len(rows) == 5
        assert len(rows[0].split(",")) == 6
        meta = json.loads((out / "sample_meta.json").read_text())
        assert meta["seed"] == 42
        assert meta["kernel"]["variant"] == "exponential"
        assert len(meta["design"]["points"]) == 6

    def test_fibonacci_sphere_design(self, tmp_path):
        config = dict(self.CONFIG, design={"type": "fibonacci_sphere", "n": 12, "sphere_dim": 3})
        config["kernel"] = {"variant": "schoenberg", "d": 3, "coeffs": [1.0, 0.5, 0.25, 0.125]}
        out = tmp_path / "out"
        assert run(["sample", "--config", write_config(tmp_path, "cfg.json", config), "--out", out]) == 0
        samples = np.loadtxt(out / "samples.csv", delimiter=",", ndmin=2)
        assert samples.shape == (5, 12)
        meta = json.loads((out / "sample_meta.json").read_text())
        assert meta["design"]["geometry"] == {"kind": "sphere", "dim": 3}
        assert meta["replicates"] == 5
        np.testing.assert_allclose(np.linalg.norm(meta["design"]["points"], axis=1), 1.0, atol=1e-12)

    def test_infinite_sigma_exit_code(self, tmp_path):
        config = dict(self.CONFIG, kernel={"variant": "brownian", "sigma": float("inf")})
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", out]) == 2
        assert not (out / "samples.csv").exists()

    def test_overflowing_sigma_exit_code(self, tmp_path, capsys):
        config = dict(self.CONFIG, kernel={"variant": "brownian", "sigma": 1e200})
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", out]) == 2
        assert "finite square" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    @pytest.mark.parametrize("seed", ["x", "7", 7.9, -1])
    def test_invalid_seed_exit_code(self, tmp_path, seed):
        cfg = write_config(tmp_path, "cfg.json", dict(self.CONFIG, seed=seed))
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", out]) == 2
        assert not out.exists()

    def test_integral_float_seed(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", dict(self.CONFIG, seed=7.0))
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", out]) == 0
        assert json.loads((out / "sample_meta.json").read_text())["seed"] == 7
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7

    @pytest.mark.parametrize("key, value", [("replicates", 5.5), ("design", {"type": "equispaced_interval", "n": 6.2})])
    def test_integer_key_not_truncated(self, tmp_path, key, value):
        cfg = write_config(tmp_path, "cfg.json", dict(self.CONFIG, **{key: value}))
        assert run(["sample", "--config", cfg, "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("domain", [[0], [0, 1, 5], ["0.5", "1"]])
    def test_domain_not_two_numbers_exit_code(self, tmp_path, domain):
        config = dict(self.CONFIG, design={"type": "equispaced_interval", "n": 6, "domain": domain})
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", out]) == 2
        assert not (out / "samples.csv").exists()

    def test_five_rows_of_eight_cells(self, tmp_path):
        config = dict(self.CONFIG, design={"type": "equispaced_interval", "n": 8, "domain": [0, 1]}, seed=3)
        assert run(["sample", "--config", write_config(tmp_path, "cfg.json", config), "--out", tmp_path]) == 0
        assert [len(row.split(",")) for row in (tmp_path / "samples.csv").read_text().splitlines()] == [8] * 5

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", self.CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["sample", "--config", cfg, "--out", out1]) == 0
        assert run(["sample", "--config", cfg, "--out", out2, "--seed", "43"]) == 0
        assert (out1 / "samples.csv").read_bytes() != (out2 / "samples.csv").read_bytes()
        assert json.loads((out2 / "sample_meta.json").read_text())["seed"] == 43
        assert json.loads((out2 / "manifest.json").read_text())["seed"] == 43


class TestMle:
    CONFIG = {
        "n_grid": [6, 10],
        "replicates": 20,
        "seed": 5,
        "optimizer": {"starts": 2, "max_evals": 120},
    }

    def test_run(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", self.CONFIG)
        out = tmp_path / "out"
        assert run(["mle", "--config", cfg, "--out", out]) == 0
        lines = (out / "consistency.csv").read_text().splitlines()
        assert lines[0] == "n,rmse_sigma2,rmse_beta,rmse_microergodic,failed_replicates"
        assert len(lines) == 3

    def test_failure_rate_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "microergodic_experiment", failing_experiment)
        cfg = write_config(tmp_path, "cfg.json", self.CONFIG)
        assert run(["mle", "--config", cfg, "--out", tmp_path / "out"]) == 5
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["x", "7", 7.9, -1])
    def test_invalid_seed_exit_code(self, tmp_path, seed):
        cfg = write_config(tmp_path, "cfg.json", dict(self.CONFIG, seed=seed))
        out = tmp_path / "out"
        assert run(["mle", "--config", cfg, "--out", out]) == 2
        assert not out.exists()

    def test_unknown_optimizer_key_rejected(self, tmp_path, capsys):
        config = dict(self.CONFIG, optimizer={"starts": 2, "max_eval": 10})
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["mle", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "max_eval" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("replicates", 20.5), ("n_grid", [6, 10.5]), ("optimizer", {"starts": 2.5})]
    )
    def test_integer_key_not_truncated(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "cfg.json", dict(self.CONFIG, **{key: value}))
        assert run(["mle", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_transform_key_rejected(self, tmp_path, capsys):
        config = dict(self.CONFIG, optimizer={"transform": "log"})
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["mle", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "transform" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "box", [5, [[0.0, 0.05], [20.0, 20.0]], [[0.05, 0.05], [1.0, 1.0], [20.0, 20.0]]]
    )
    def test_box_error_names_box(self, tmp_path, capsys, box):
        cfg = write_config(tmp_path, "cfg.json", dict(self.CONFIG, box=box))
        out = tmp_path / "out"
        assert run(["mle", "--config", cfg, "--out", out]) == 2
        assert "invalid config: box must" in capsys.readouterr().err
        assert not out.exists()

    def test_optimizer_not_object_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", dict(self.CONFIG, optimizer=[]))
        assert run(["mle", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "optimizer must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("domain", [0]),
            ("domain", [0, 1, 5]),
            ("theta0", [1.0]),
            ("box", [[0.05], [20.0]]),
            ("optimizer", {"max_evals": -5}),
            ("optimizer", {"max_evals": 0}),
            ("optimizer", {"tol_x": "nan"}),
            ("optimizer", {"tol_f": -1.0}),
            ("optimizer", {"tol_x": "1e-3"}),
            ("n_grid", 6),
            ("theta0", 1.0),
            ("box", [[0.05, "0.05"], [20.0, 20.0]]),
        ],
    )
    def test_out_of_range_setting_exit_code(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "cfg.json", dict(self.CONFIG, **{key: value}))
        out = tmp_path / "out"
        assert run(["mle", "--config", cfg, "--out", out]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (out / "consistency.csv").exists()
        assert not (out / "manifest.json").exists()


class TestCommonBehavior:
    def test_malformed_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["jdiv", "--config", bad, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("name, what", [("cfg.json", "config"), ("m2.json", "measure2")])
    @pytest.mark.parametrize("text", [b'{"atoms": "\xff"}', b'{"atoms": ' + b"9" * 5000 + b"}"], ids=["utf8", "digits"])
    def test_undecodable_file_exit_code(self, tmp_path, capsys, name, what, text):
        TestChow()._measures(tmp_path)
        write_config(tmp_path, "cfg.json", TestJsonTypes.BASE["chow"])
        (tmp_path / name).write_bytes(text)
        assert run(["chow", "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"]) == 2
        assert f"invalid config: {what} is not JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_library_error_propagates(self, tmp_path, monkeypatch):
        # a fault inside the library: a TypeError raised by a function that a subcommand calls
        monkeypatch.setattr(cli, "dichotomy_diagnostic", lambda trace: trace + 1)
        with pytest.raises(TypeError):
            run(["jdiv", "--config", write_config(tmp_path, "cfg.json", JDIV_BROWNIAN), "--out", tmp_path / "out"])
        assert not (tmp_path / "out").exists()

    def test_missing_key_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"kernel1": {"variant": "brownian", "sigma": 1}})
        assert run(["jdiv", "--config", cfg, "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "3"]])
    @pytest.mark.parametrize("sub", ["jdiv", "sphere", "chow", "sample", "mle"])
    def test_non_object_config_exit_code(self, tmp_path, capsys, sub, seed_args):
        cfg = write_config(tmp_path, "cfg.json", [1, 2])
        out = tmp_path / "out"
        out.mkdir()
        assert run([sub, "--config", cfg, "--out", out, *seed_args]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sub", ["sample", "mle"])
    def test_missing_seed_creates_no_out(self, tmp_path, capsys, sub):
        config = {k: v for k, v in {"sample": TestSample.CONFIG, "mle": TestMle.CONFIG}[sub].items() if k != "seed"}
        out = tmp_path / "out"
        assert run([sub, "--config", write_config(tmp_path, "cfg.json", config), "--out", out]) == 2
        assert f"{sub} requires a seed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert run(["jdiv", "--config", tmp_path / "nope.json", "--out", tmp_path]) == 2

    def test_manifest_written(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", JDIV_BROWNIAN)
        out = tmp_path / "out"
        assert run(["jdiv", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["subcommand", "config_digest", "seed", "tool_version", "timestamp"]
        assert manifest["subcommand"] == "jdiv"
        assert len(manifest["config_digest"]) == 64
        assert manifest["tool_version"]
        assert manifest["timestamp"]

    def test_manifest_digest_stable(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", JDIV_BROWNIAN)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run(["jdiv", "--config", cfg, "--out", out1])
        run(["jdiv", "--config", cfg, "--out", out2])
        d1 = json.loads((out1 / "manifest.json").read_text())["config_digest"]
        d2 = json.loads((out2 / "manifest.json").read_text())["config_digest"]
        assert d1 == d2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", JDIV_BROWNIAN)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["jdiv", "--config", cfg, "--out", out1]) == 0
        assert run(["jdiv", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize("sub", ["jdiv", "sphere", "chow", "sample", "mle"])
    def test_threads_flag_rejected(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, "cfg.json", {})
        with pytest.raises(SystemExit) as exc:
            run([sub, "--config", cfg, "--out", tmp_path / "out", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_help_mentions_config_keys(self, capsys):
        for sub in ("jdiv", "sphere", "chow", "sample", "mle"):
            with pytest.raises(SystemExit) as exc:
                run([sub, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "config keys:" in out

    @pytest.mark.parametrize("argv", [[], ["jdiv"], ["sphere"], ["chow"], ["sample"], ["mle"]])
    def test_help_text_pinned(self, capsys, monkeypatch, argv):
        # tests/help/<name>.txt holds the --help output at 80 columns, byte for byte
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--help"])
        assert exc.value.code == 0
        pinned = HELP_DIR / f"{argv[0] if argv else 'gaussequiv'}.txt"
        assert capsys.readouterr().out == pinned.read_text()


class TestJsonTypes:
    """Numbers, counts and atom labels of the wrong JSON type exit 2 with no manifest
    (the seed, domain, optimizer and atom tests above hold more cases)."""

    BASE = {
        "sample": TestSample.CONFIG,
        "sphere": {"sphere_dim": 3, "K": 2, "spectrum1": [1.0, 2.0, 1.0], "spectrum2": [1.0, 1.0, 1.0]},
        "chow": {"measure1": "m1.json", "measure2": "m2.json", "N": 2},
    }

    @pytest.mark.parametrize(
        "sub, changes",
        [
            ("sample", {"kernel": {"variant": "brownian", "sigma": "1.5"}}),
            ("sphere", {"K": "2"}),
            ("sample", {"replicates": True}),
            ("sphere", {"spectrum1": ["1.0", 2.0, 1.0]}),
            ("chow", {"weight_bound": "3"}),
        ],
        ids=["sigma", "K", "replicates", "spectrum1", "weight_bound"],
    )
    def test_config_value_rejected(self, tmp_path, capsys, sub, changes):
        TestChow()._measures(tmp_path)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {**self.BASE[sub], **changes})
        assert run([sub, "--config", cfg, "--out", out]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("label", [1, None])
    def test_atom_label_not_string_rejected(self, tmp_path, capsys, label):
        TestChow()._measures(tmp_path)
        for name in ("m1.json", "m2.json"):
            measure = json.loads((tmp_path / name).read_text())
            measure["atoms"][0]["label"] = label
            (tmp_path / name).write_text(json.dumps(measure))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", self.BASE["chow"])
        assert run(["chow", "--config", cfg, "--out", out]) == 2
        assert "invalid config: atom labels must be JSON strings" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_integral_numbers_still_read(self, tmp_path):
        # an integer sigma, a 6.0 count and a 7.0 seed give the bytes of 2.0, 6 and 7
        outs = []
        for sigma, n, seed in [(2, 6.0, 7.0), (2.0, 6, 7)]:
            config = {
                "kernel": {"variant": "brownian", "sigma": sigma},
                "design": {"type": "equispaced_interval", "n": n, "domain": [0.5, 1]},
                "replicates": 3,
                "seed": seed,
            }
            outs.append(tmp_path / f"out{len(outs)}")
            assert run(["sample", "--config", write_config(tmp_path, "cfg.json", config), "--out", outs[-1]]) == 0
        assert (outs[0] / "samples.csv").read_bytes() == (outs[1] / "samples.csv").read_bytes()


class TestIntegralFloatCounts:
    """A count written as an integral float (2.0) writes the bytes of the integer count (2)."""

    SCHOENBERG = {"variant": "schoenberg", "d": 3, "coeffs": [1.0, 0.5, 0.25]}
    RUNS = {
        "sphere": TestJsonTypes.BASE["sphere"],
        "sphere-ratio": {"sphere_dim": 3, "K": 5, "ratio_model": {"type": "power", "c": 1.0, "s": 2.0}},
        "chow": TestJsonTypes.BASE["chow"],
        "sample": TestSample.CONFIG,
        "sample-dyadic": dict(TestSample.CONFIG, design={"type": "dyadic_interval", "n": 8}),
        "jdiv-sphere": {
            "kernel1": SCHOENBERG,
            "kernel2": dict(SCHOENBERG, coeffs=[1.0, 0.5, 0.5]),
            "designs": {"type": "fibonacci_sphere", "sizes": [2, 4, 6, 8], "sphere_dim": 3},
        },
        "mle": TestMle.CONFIG,
    }

    def _outputs(self, tmp_path, case, config):
        TestChow()._measures(tmp_path)
        out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
        sub = case.split("-")[0]
        assert run([sub, "--config", write_config(tmp_path, "cfg.json", config), "--out", out]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    @pytest.mark.parametrize(
        "case, floats",
        [
            ("sphere", {"K": 2.0}),
            ("sphere", {"sphere_dim": 3.0}),
            ("sphere-ratio", {"K": 5.0, "sphere_dim": 3.0}),
            ("chow", {"N": 2.0}),
            ("sample", {"replicates": 5.0}),
            ("sample-dyadic", {"design": {"type": "dyadic_interval", "n": 8.0}}),
            ("jdiv-sphere", {"designs": {"type": "fibonacci_sphere", "sizes": [2.0, 4, 6, 8.0], "sphere_dim": 3.0}}),
            ("mle", {"n_grid": [6.0, 10], "replicates": 20.0, "optimizer": {"starts": 2.0, "max_evals": 120.0}}),
        ],
    )
    def test_same_bytes(self, tmp_path, case, floats):
        config = self.RUNS[case]
        assert self._outputs(tmp_path, case, config) == self._outputs(tmp_path, case, {**config, **floats})


class TestFailedRunWritesNothing:
    """Every failure inside a subcommand exits before ``--out`` is created or touched."""

    RUNS = {
        "chow-label-mismatch": ("chow", {"measure1": "m1.json", "measure2": "zz.json", "N": 1}, 4),
        "sphere-support-mismatch": (
            "sphere", {"sphere_dim": 3, "K": 2, "spectrum1": [1.0, 1.0, 1.0], "spectrum2": [1.0, 1.0, 0.0]}, 4
        ),
        "jdiv-three-designs": ("jdiv", dict(JDIV_BROWNIAN, designs={"type": "dyadic_interval", "max_n": 8}), 2),
        "sample-brownian-origin": (
            "sample",
            dict(
                TestSample.CONFIG,
                kernel={"variant": "brownian", "sigma": 1.0},
                design={"type": "explicit", "geometry": {"kind": "euclidean", "dim": 1}, "points": [0.0, 0.5, 1.0]},
            ),
            3,
        ),
        "mle-failure-rate": ("mle", TestMle.CONFIG, 5),
    }

    def _run(self, tmp_path, monkeypatch, case, out):
        sub, config, code = self.RUNS[case]
        TestChow()._measures(tmp_path)
        (tmp_path / "zz.json").write_text(json.dumps({"atoms": [{"label": "zz", "mass": 1.0, "dim": 1}]}))
        monkeypatch.setattr(cli, "microergodic_experiment", failing_experiment)
        assert run([sub, "--config", write_config(tmp_path, "cfg.json", config), "--out", out]) == code

    @pytest.mark.parametrize(
        "sub, config, message",
        [
            ("sample", {**TestSample.CONFIG, "design": {"type": "grid", "n": 8}}, "unknown design type 'grid'"),
            ("jdiv", {**JDIV_BROWNIAN, "designs": {"type": "grid", "max_n": 8}}, "unknown nested design type 'grid'"),
            ("sphere", {"sphere_dim": 3, "K": 2}, "explicit spectra or a ratio_model"),
            ("sample", {**TestSample.CONFIG, "design": 5}, "design must be a JSON object"),
            ("jdiv", {**JDIV_BROWNIAN, "designs": []}, "designs must be a JSON object"),
            ("chow", {**TestJsonTypes.BASE["chow"], "measure1": 5}, "measure1 must be a path as a JSON string, not 5"),
            ("chow", {**TestJsonTypes.BASE["chow"], "measure1": "m1\0.json"}, "measure1 must be a path as a JSON"),
            ("sample", {**TestSample.CONFIG, "design": {"type": "explicit", "geometry": []}}, "geometry must be a"),
            ("jdiv", {**JDIV_BROWNIAN, "kernel2": {"variant": "brownian"}}, "invalid config: missing key 'sigma'"),
            ("mle", {**TestMle.CONFIG, "optimizer": {"starts": 2.5, "max_evals": 120}}, "starts must be an integer"),
            ("mle", {**TestMle.CONFIG, "optimizer": {"transform": "log"}}, "unknown optimizer keys ['transform']"),
            ("mle", {**TestMle.CONFIG, "n_grid": 6}, "n_grid must be a nonempty list of counts, not 6"),
            ("mle", {**TestMle.CONFIG, "theta0": 1.0}, "theta0 must have shape (2,), not ()"),
        ],
        ids=["design", "designs", "sphere-spectra", "design-not-object", "designs-not-object"]
        + ["measure-path", "measure-path-nul", "geometry", "missing-key", "starts", "transform", "n_grid", "theta0"],
    )
    def test_unknown_config_form(self, tmp_path, capsys, sub, config, message):
        out = tmp_path / "out"
        assert run([sub, "--config", write_config(tmp_path, "cfg.json", config), "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", RUNS)
    def test_no_out_created(self, tmp_path, monkeypatch, case):
        out = tmp_path / "out"
        self._run(tmp_path, monkeypatch, case, out)
        assert not out.exists()

    @pytest.mark.parametrize("case", RUNS)
    def test_existing_out_untouched(self, tmp_path, monkeypatch, case):
        out = tmp_path / "out"
        out.mkdir()
        before = {"manifest.json": "{}\n", "trace.csv": "old\n", "criterion.csv": "old\n", "samples.csv": "old\n"}
        for name, text in before.items():
            (out / name).write_text(text)
        self._run(tmp_path, monkeypatch, case, out)
        assert {p.name: p.read_text() for p in out.iterdir()} == before
