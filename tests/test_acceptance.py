"""Release acceptance suite.

Each test exercises one acceptance criterion at its pinned tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or on failure).
The ML consistency experiment dominates the runtime; everything else
finishes in seconds.
"""

import json
import math
import time

import numpy as np
from scipy.special import zeta

from gaussequiv import (
    BrownianKernel,
    ExperimentConfig,
    ExponentialKernel,
    PowerLawRatio,
    SchoenbergKernel,
    SchoenbergSpectrum,
    Verdict,
    chow_sum,
    atomic_measure_from_spectrum,
    AtomicSpectralMeasure,
    equispaced_interval_design,
    fibonacci_sphere_designs,
    dyadic_interval_designs,
    gram,
    gram_from_matrix,
    j_divergence,
    j_divergence_trace,
    microergodic_experiment,
    reproducing_check,
    sample_paths,
    empirical_covariance,
    spectra_from_ratio_model,
    sphere_equivalence_sum,
    tensor_norm_finite,
)
from gaussequiv import cli

from conftest import make_spd


def _criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


def test_closed_form_j_divergence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 101):
        r2 = make_spd(rng, n)
        g2 = gram_from_matrix(r2)
        for alpha in (0.5, 2.0, 3.0):
            value = j_divergence(gram_from_matrix(alpha**2 * r2), g2)
            expected = 0.5 * (alpha - 1 / alpha) ** 2 * n
            worst = max(worst, abs(value - expected) / expected)
    elapsed = time.perf_counter() - t0
    _criterion(
        "closed-form J for scaled covariances",
        worst <= 1e-8 and elapsed < 2.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_brownian_scaling_orthogonality(tmp_path):
    designs = dyadic_interval_designs(128)
    trace = j_divergence_trace(BrownianKernel(1.0), BrownianKernel(2.0), designs)
    per_n = trace.values / np.array(trace.sizes)
    max_dev = float(np.max(np.abs(per_n - 1.125)))
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "kernel1": {"variant": "brownian", "sigma": 1.0},
                "kernel2": {"variant": "brownian", "sigma": 2.0},
                "designs": {"type": "dyadic_interval", "max_n": 128, "domain": [0, 1]},
            }
        )
    )
    out = tmp_path / "out"
    code = cli.main(["jdiv", "--config", str(config), "--out", str(out)])
    label = json.loads((out / "verdict.json").read_text())["verdict"]["label"]
    _criterion(
        "Brownian scaling orthogonality",
        max_dev <= 1e-8 and code == 0 and label == "OrthogonalityIndicated",
        f"max |J(n)/n - 1.125| = {max_dev:.2e}, cmd_jdiv label {label}",
    )


def test_kl_oracle_equivalence():
    rng = np.random.default_rng(202)

    def kl(r1, r2):
        n = r1.shape[0]
        inv2 = np.linalg.inv(r2)
        return 0.5 * (
            np.trace(inv2 @ r1) - n + np.linalg.slogdet(r2)[1] - np.linalg.slogdet(r1)[1]
        )

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        r1, r2 = make_spd(rng, n), make_spd(rng, n)
        value = j_divergence(gram_from_matrix(r1), gram_from_matrix(r2))
        expected = kl(r1, r2) + kl(r2, r1)
        if expected > 0:
            worst = max(worst, abs(value - expected) / expected)
    _criterion("J equals symmetrized KL oracle", worst <= 1e-8, f"worst rel err {worst:.2e}")


def test_monotonicity_suite():
    rng = np.random.default_rng(303)
    interval_designs = dyadic_interval_designs(64)
    sphere_designs = fibonacci_sphere_designs([10, 20, 40])
    worst_dip = 0.0
    pairs = 0
    for _ in range(7):
        k1 = BrownianKernel(sigma=rng.uniform(0.5, 2.0))
        k2 = BrownianKernel(sigma=rng.uniform(0.5, 2.0))
        worst_dip = min(worst_dip, np.min(np.diff(j_divergence_trace(k1, k2, interval_designs).values)))
        pairs += 1
    for _ in range(7):
        k1 = ExponentialKernel(sigma=rng.uniform(0.5, 2.0), beta=rng.uniform(0.5, 3.0))
        k2 = ExponentialKernel(sigma=rng.uniform(0.5, 2.0), beta=rng.uniform(0.5, 3.0))
        worst_dip = min(worst_dip, np.min(np.diff(j_divergence_trace(k1, k2, interval_designs).values)))
        pairs += 1
    for _ in range(6):
        s1 = SchoenbergSpectrum(3, rng.uniform(0.3, 1.5, 8))
        s2 = SchoenbergSpectrum(3, rng.uniform(0.3, 1.5, 8))
        trace = j_divergence_trace(SchoenbergKernel(s1), SchoenbergKernel(s2), sphere_designs)
        worst_dip = min(worst_dip, np.min(np.diff(trace.values)))
        pairs += 1
    _criterion(
        "J non-decreasing along nested designs",
        pairs == 20 and worst_dip >= -1e-9,
        f"20 kernel pairs, worst step {worst_dip:.2e}",
    )


def test_sphere_criterion():
    t0 = time.perf_counter()
    model_fast = PowerLawRatio(c=1.0, s=2.0)
    s1, s2 = spectra_from_ratio_model(model_fast, 3, 10_000)
    res = sphere_equivalence_sum(s1, s2, 10_000, tail_model=model_fast)
    # independent limit: sum (2k+1)/(k+1)^4 = 2 zeta(3) - zeta(4)
    limit = 2 * zeta(3, 1) - zeta(4, 1)
    err = abs(res.final - limit)
    model_slow = PowerLawRatio(c=1.0, s=0.5)
    s1s, s2s = spectra_from_ratio_model(model_slow, 3, 1000)
    res_slow = sphere_equivalence_sum(s1s, s2s, 1000, tail_model=model_slow)
    elapsed = time.perf_counter() - t0
    _criterion(
        "sphere criterion verdicts and limit",
        res.verdict is Verdict.FINITE
        and err <= 1e-3
        and res.tail_bound <= 1e-3
        and res_slow.verdict is Verdict.DIVERGENT
        and elapsed < 1.0,
        f"s=2 off by {err:.2e} (tail bound {res.tail_bound:.1e}), s=0.5 {res_slow.verdict.value}, {elapsed:.2f}s",
    )


def test_grenander_chow_crosscheck():
    n = 100_000
    idx = np.arange(1, n + 1)
    labels = tuple(f"a{i}" for i in idx)
    m1 = AtomicSpectralMeasure(labels, 1.0 + 1.0 / idx, np.ones(n, dtype=int))
    m2 = AtomicSpectralMeasure(labels, np.ones(n), np.ones(n, dtype=int))
    basel = chow_sum(m1, m2, n)
    basel_err = abs(basel.final - math.pi**2 / 6)

    ks = np.arange(51, dtype=float)
    a2 = np.exp(-0.1 * ks)
    a1 = a2 * (1.0 + (ks + 1.0) ** (-2))
    s1 = SchoenbergSpectrum(3, a1)
    s2 = SchoenbergSpectrum(3, a2)
    sphere = sphere_equivalence_sum(s1, s2, 50)
    atoms = chow_sum(atomic_measure_from_spectrum(s1), atomic_measure_from_spectrum(s2), 51)
    term_dev = float(np.max(np.abs(atoms.terms - sphere.terms)))
    _criterion(
        "atom criterion vs unweighted and sphere forms",
        basel_err <= 1e-4 and term_dev <= 1e-12,
        f"Basel err {basel_err:.2e}, term deviation {term_dev:.2e}",
    )


def test_tensor_norm_bridge():
    ks = np.arange(16, dtype=float)
    base = 0.8**ks
    ratio = np.where(ks <= 5, 1.0 + 1.0 / (ks + 1.0) ** 2, 1.0)
    s_other = SchoenbergSpectrum(3, base * ratio)
    s_base = SchoenbergSpectrum(3, base)
    criterion_value = sphere_equivalence_sum(s_other, s_base, 15).final
    k_other = SchoenbergKernel(s_other)
    k_base = SchoenbergKernel(s_base)
    values = []
    for design in fibonacci_sphere_designs([20, 40, 80, 160]):
        g_base = gram(k_base, design)
        diff = gram(k_other, design).entries - g_base.entries
        values.append(tensor_norm_finite(g_base, diff))
    monotone = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    bounded = all(v <= criterion_value + 1e-6 for v in values)
    coverage = values[-1] / criterion_value
    _criterion(
        "finite tensor norms bracket the spectral value",
        monotone and bounded and coverage >= 0.9,
        f"n=160 reaches {coverage:.1%} of {criterion_value:.4f}",
    )


def test_reproducing_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 21))
        g = gram_from_matrix(make_spd(rng, n))
        v = rng.standard_normal(n)
        i = int(rng.integers(0, n))
        worst = max(worst, reproducing_check(g, v, i))
    _criterion("reproducing identity residuals", worst <= 1e-9, f"worst residual {worst:.2e}")


def test_sampler_statistics():
    m = 20_000
    worst = 0.0
    for kernel, design, seed in (
        (BrownianKernel(sigma=1.0), equispaced_interval_design(8, (1 / 8, 1.0)), 123),
        (ExponentialKernel(sigma=1.0, beta=1.0), equispaced_interval_design(8), 124),
    ):
        g = gram(kernel, design)
        emp = empirical_covariance(sample_paths(g, m, seed))
        r = g.entries
        se = np.sqrt((np.outer(np.diag(r), np.diag(r)) + r**2) / m)
        worst = max(worst, float(np.max(np.abs(emp - r) / se)))
    _criterion(
        "empirical covariance within 5 standard errors",
        worst <= 5.0,
        f"worst deviation {worst:.2f} se",
    )


def test_ml_microergodicity():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        n_grid=(50, 100, 200, 400),
        replicates=50,
        seed=7,
    )
    report = microergodic_experiment(config)
    elapsed = time.perf_counter() - t0
    r = report.rmse_microergodic
    inversions = [(a, b) for a, b in zip(r, r[1:]) if b >= a]
    trend_ok = len(inversions) <= 1 and all(b <= 1.05 * a for a, b in inversions)
    separation = r[-1] < report.rmse_sigma2[-1]
    _criterion(
        "microergodic RMSE trend",
        trend_ok and separation and elapsed < 600.0 and sum(report.failed) == 0,
        f"rmse(s2*b) {np.round(r, 4).tolist()} vs rmse(s2) {report.rmse_sigma2[-1]:.3f} at n=400, "
        f"{elapsed:.0f}s",
    )


def test_cli_determinism(tmp_path):
    runs = {
        "jdiv": {
            "kernel1": {"variant": "brownian", "sigma": 1.0},
            "kernel2": {"variant": "brownian", "sigma": 2.0},
            "designs": {"type": "dyadic_interval", "max_n": 32, "domain": [0, 1]},
        },
        "sphere": {
            "sphere_dim": 3,
            "K": 200,
            "ratio_model": {"type": "power", "c": 1.0, "s": 2.0},
        },
        "sample": {
            "kernel": {"variant": "exponential", "sigma": 1.0, "beta": 1.0},
            "design": {"type": "equispaced_interval", "n": 8, "domain": [0, 1]},
            "replicates": 16,
            "seed": 99,
        },
        "mle": {
            "n_grid": [6, 10],
            "replicates": 20,
            "seed": 5,
            "optimizer": {"starts": 2, "max_evals": 120},
        },
    }
    m1 = {"atoms": [{"label": "x1", "mass": 2.0, "dim": 1}, {"label": "x2", "mass": 1.0, "dim": 2}]}
    m2 = {"atoms": [{"label": "x1", "mass": 1.0, "dim": 1}, {"label": "x2", "mass": 1.0, "dim": 2}]}
    (tmp_path / "m1.json").write_text(json.dumps(m1))
    (tmp_path / "m2.json").write_text(json.dumps(m2))
    runs["chow"] = {"measure1": "m1.json", "measure2": "m2.json", "N": 2}

    csv_names = {
        "jdiv": "trace.csv",
        "sphere": "criterion.csv",
        "chow": "criterion.csv",
        "sample": "samples.csv",
        "mle": "consistency.csv",
    }
    all_identical = True
    for sub, payload in runs.items():
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(payload))
        out1 = tmp_path / f"{sub}_1"
        out2 = tmp_path / f"{sub}_2"
        assert cli.main([sub, "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main([sub, "--config", str(cfg), "--out", str(out2)]) == 0
        b1 = (out1 / csv_names[sub]).read_bytes()
        b2 = (out2 / csv_names[sub]).read_bytes()
        all_identical = all_identical and b1 == b2
    _criterion(
        "byte-identical CSVs on repeated CLI runs",
        all_identical,
        "jdiv, sphere, chow, sample, mle",
    )
