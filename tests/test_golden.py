"""Pinned SHA-256 digests of CLI outputs, and pins of library results.

The configs are those of the acceptance determinism check, plus two
``sample`` runs on a dyadic and on an explicit design and two ``chow`` runs
with a power-law tail model, with and without ``weight_bound``.  Each digest covers
one output file byte for byte, so a changed digest means a changed output;
refactors must leave every digest as it is.  At these sizes the digests do
not depend on the OpenBLAS thread count (checked with 1 and 2 threads).

The library pins at the end cover the package's public names, two
generated arrays, the verdict rationale strings, three Markov J traces
whose AR decays differ and the exponential-kernel likelihood, which no CLI
digest reaches byte for byte.
"""

import hashlib
import json

import numpy as np
import pytest

import gaussequiv
from gaussequiv import (
    BrownianKernel,
    Design,
    DivergenceTrace,
    ExponentialKernel,
    LikelihoodProblem,
    VerdictLabel,
    cli,
    dichotomy_diagnostic,
    dyadic_interval_designs,
    dyadic_interval_points,
    equispaced_interval_design,
    harmonic_dimensions,
    j_divergence_trace,
    neg_log_likelihood,
)

MEASURE1 = {"atoms": [{"label": "x1", "mass": 2.0, "dim": 1}, {"label": "x2", "mass": 1.0, "dim": 2}]}
MEASURE2 = {"atoms": [{"label": "x1", "mass": 1.0, "dim": 1}, {"label": "x2", "mass": 1.0, "dim": 2}]}

RUNS = {
    "jdiv": ("jdiv", {
        "kernel1": {"variant": "brownian", "sigma": 1.0},
        "kernel2": {"variant": "brownian", "sigma": 2.0},
        "designs": {"type": "dyadic_interval", "max_n": 32, "domain": [0, 1]},
    }),
    "sphere": ("sphere", {
        "sphere_dim": 3,
        "K": 200,
        "ratio_model": {"type": "power", "c": 1.0, "s": 2.0},
    }),
    "chow": ("chow", {"measure1": "m1.json", "measure2": "m2.json", "N": 2}),
    "chow_tail": ("chow", {
        "measure1": "m1.json", "measure2": "m2.json", "N": 2,
        "ratio_model": {"type": "power", "c": 1.0, "s": 2.0},
    }),
    "chow_tail_bound": ("chow", {
        "measure1": "m1.json", "measure2": "m2.json", "N": 2,
        "ratio_model": {"type": "power", "c": 1.0, "s": 2.0},
        "weight_bound": 3.0,
    }),
    "sample": ("sample", {
        "kernel": {"variant": "exponential", "sigma": 1.0, "beta": 1.0},
        "design": {"type": "equispaced_interval", "n": 8, "domain": [0, 1]},
        "replicates": 16,
        "seed": 99,
    }),
    "sample_dyadic": ("sample", {
        "kernel": {"variant": "brownian", "sigma": 1.5},
        "design": {"type": "dyadic_interval", "n": 16, "domain": [0, 2]},
        "replicates": 12,
        "seed": 7,
    }),
    "sample_explicit": ("sample", {
        "kernel": {"variant": "exponential", "sigma": 0.5, "beta": 3.0},
        "design": {
            "type": "explicit",
            "geometry": {"kind": "euclidean", "dim": 1},
            "points": [[0.1], [0.35], [0.5], [0.9], [1.7]],
        },
        "replicates": 10,
        "seed": 2024,
    }),
    "mle": ("mle", {
        "n_grid": [6, 10],
        "replicates": 20,
        "seed": 5,
        "optimizer": {"starts": 2, "max_evals": 120},
    }),
}

GOLDEN = {
    "chow/criterion.csv": "3f9192bd467a5816dad910cfb9888a4c15383a348e17726628efc7cb7f9d565e",
    "chow/verdict.json": "68d28940f884aa35de67a28c431a04b4c63528513c7c0205db53a7e065650597",
    "chow_tail/criterion.csv": "3f9192bd467a5816dad910cfb9888a4c15383a348e17726628efc7cb7f9d565e",
    "chow_tail/verdict.json": "011bc6e102f683da06ed3940437342b21638269d16cf12ca92be68f4b987f975",
    "chow_tail_bound/criterion.csv": "3f9192bd467a5816dad910cfb9888a4c15383a348e17726628efc7cb7f9d565e",
    "chow_tail_bound/verdict.json": "cb30644745d4040312bbde761715b9b28f4c46183480496b6c793dd444636779",
    "jdiv/trace.csv": "dd3433cb33aa4e69a91398a212abaa48c6f7fe5c0c6b3eafb102bdf5e00aace9",
    "jdiv/verdict.json": "5bbe1ad6dcc5ef92bfb9f7d8f4b13ebefca6f906debfde1920d6fcf4a3282348",
    "mle/consistency.csv": "4805057c5fbf596705135a484d586bcf38d0526c6301ee56f11370a4b08f547c",
    "sample/sample_meta.json": "137d03f7d98595f9590cdf2ead9c3cd297a9d1ffef2965af8c9fd16a7e53e112",
    "sample/samples.csv": "d0cfff2f57eedbad6ad735d0ab24e620565f4d3c1c4b768d4809ffbbcdc80f71",
    "sample_dyadic/sample_meta.json": "fefb46a88b4a241c2b0ef9db6c2d8ef080177254afcda746387a455caef8d924",
    "sample_dyadic/samples.csv": "e8a91a9f905b48afa73917d33ca99951b84fc8caa33d5d490fe1cc8484bfe0b6",
    "sample_explicit/sample_meta.json": "82b6b56f8f40b6da81065f828da3c96e26ea53eaccddf5e6cacc9155a095da7d",
    "sample_explicit/samples.csv": "081aea1a300f97ac707291159466a6c15779cad8f440e4363627335a76387d67",
    "sphere/criterion.csv": "dba4111a7aca5f37b2729ff72702a26ae60ef2d78aa7b84096cbbb52713a1b9e",
    "sphere/verdict.json": "f7a7094d0a8dc44ea9ae82283f8add791436f49fdb77048b43e89dc185481717",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    (base / "m1.json").write_text(json.dumps(MEASURE1))
    (base / "m2.json").write_text(json.dumps(MEASURE2))
    out = {}
    for run, (sub, payload) in RUNS.items():
        cfg = base / f"{run}.json"
        cfg.write_text(json.dumps(payload))
        outdir = base / run
        assert cli.main([sub, "--config", str(cfg), "--out", str(outdir)]) == 0
        for path in sorted(outdir.iterdir()):
            if path.name != "manifest.json":
                out[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_output_files(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest(digests, name):
    assert digests[name] == GOLDEN[name]


PUBLIC_NAMES = [
    "AtomMismatchError", "AtomicSpectralMeasure", "BrownianKernel", "ConsistencyReport",
    "ConstantRatio", "ContractError", "CovarianceKernel", "CriterionResult", "Design",
    "DichotomyVerdict", "DivergenceTrace", "ExperimentConfig", "ExponentialKernel",
    "FiniteFunction", "Geometry", "GramMatrix", "LikelihoodProblem", "MLEResult",
    "OptimizationFailedError", "OptimizerConfig", "ParamSpace", "PowerLawRatio", "RatioModel",
    "SampleBatch", "SchoenbergKernel", "SchoenbergSpectrum", "SingularGramError", "Verdict",
    "VerdictLabel", "atomic_measure_from_spectrum", "batch_to_csv", "check_shared_atoms",
    "chow_sum", "cli", "criterion_to_csv", "derive_seed", "designs", "dichotomy_diagnostic",
    "divergence", "dyadic_interval_designs", "dyadic_interval_points", "empirical_covariance",
    "equispaced_interval_design", "errors", "eval_kernel", "fibonacci_sphere_designs",
    "fit_mle", "gaussian_logpdf", "gegenbauer_normalized", "gram", "gram_from_matrix",
    "harmonic_dimension", "harmonic_dimensions", "is_prefix_nested", "j_divergence",
    "j_divergence_trace", "kernel_from_json", "kernel_to_json", "kernels",
    "microergodic_experiment", "mle", "neg_log_likelihood", "report_to_csv",
    "reproducing_check", "rkhs", "rkhs_inner", "rkhs_norm", "sample_paths", "sampler",
    "spectra_from_ratio_model", "spectral", "sphere_equivalence_sum", "sphere_sequence",
    "tensor_norm_finite", "trace_to_csv", "trace_to_json",
]


def test_public_names():
    # ``cli`` is imported above, so it is a package attribute like the modules
    assert sorted(n for n in dir(gaussequiv) if not n.startswith("_")) == PUBLIC_NAMES


def test_dyadic_points_digest():
    pts = dyadic_interval_points(2**20, (0.0, 1.5))
    digest = hashlib.sha256(pts.tobytes()).hexdigest()
    assert digest == "929e6b0147697ee7aa0779662ed09fad64ea935dff7fbd189ecedfff32f33422"


def test_harmonic_dimensions_digest():
    h = hashlib.sha256()
    for d in range(3, 30):
        h.update(harmonic_dimensions(d, 500).tobytes())
    assert h.hexdigest() == "4570a774b2270a88e9d22d69e288bf38459d9f7baf8217208c8415a9b24fa79a"


@pytest.mark.parametrize(
    "k1, k2, digest",
    [
        (
            ExponentialKernel(1.0, 2.0), ExponentialKernel(2.0**0.5, 1.0),
            "78b238a7b40f85358ada97c67f2455829cc57962a495c2c6e4033fc17999d380",
        ),
        (
            ExponentialKernel(1.0, 1.0), ExponentialKernel(1.0, 2.0),
            "91773f5745ee42213b01514b6d1707e27f7e6a42e213153e921b2128a77ca117",
        ),
        (
            ExponentialKernel(1.0, 1.0), BrownianKernel(1.0),
            "bbfe7738bacf2960623b22df51b26ca275534ebdd3c715343ed3523d4069f23b",
        ),
    ],
)
def test_markov_trace_digest(k1, k2, digest):
    # every pair has a nonzero AR decay term, which a Brownian pair lacks
    values = j_divergence_trace(k1, k2, dyadic_interval_designs(2048, (0.0, 1.5))).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_exponential_likelihood_digest():
    rng = np.random.default_rng(13)
    perm = rng.permutation(200)
    design = Design.interval(equispaced_interval_design(200).coords[perm, 0])
    family = lambda th: ExponentialKernel(float(th[0]), float(th[1]))
    problem = LikelihoodProblem(family, design, rng.standard_normal(200))
    thetas = [(1.0, 1.0), (0.5, 3.0), (2.0, 0.2), (0.05, 20.0), (20.0, 0.05)]
    values = np.array([neg_log_likelihood(problem, theta) for theta in thetas])
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == "5fe78bb39a0559f046304b23c9b908689a48ee9e97ee1410dd98fc68ee10577f"


@pytest.mark.parametrize(
    "values, slope, label, rationale",
    [
        (
            [0.5, 1.25, 3.0, 7.7], 0.5875, VerdictLabel.ORTHOGONALITY,
            "J grew by a factor 2.57 across a doubling of n (threshold 1.5); tail slope 0.588",
        ),
        (
            [1.0, 1.02, 1.03, 1.031], 0.0001, VerdictLabel.EQUIVALENCE,
            "J is flat: doubling ratio 1 <= 1.05 and slope*n = 0.0016 within 5% of J(n)",
        ),
        (
            [1.0, 1.1, 1.2, 1.3], 0.0125, VerdictLabel.INCONCLUSIVE,
            "doubling ratio 1.08 between thresholds; tail slope 0.0125",
        ),
    ],
)
def test_verdict_rationale(values, slope, label, rationale):
    verdict = dichotomy_diagnostic(DivergenceTrace((2, 4, 8, 16), np.array(values), slope))
    assert (verdict.label, verdict.statistic, verdict.rationale) == (label, slope, rationale)
