"""The three benchmark workloads.

Each workload is a closed loop with one caller.  Its constructor generates
the inputs from the seed (this is set-up), ``warm_up`` runs one small call
through the same code, ``run_pass`` is the timed unit of work, ``check``
verifies a pass's outputs outside the timed section, and ``cleanup``
removes what the pass wrote.

A pass returns ``(operations, failed_operations, outputs)``; ``check``
returns a list of ``(check name, ok, detail)``.

Reference values (RMSEs of the ML experiment, CSV digests) are recorded in
``reference.json`` for ``VARIANTS`` input variants; a seed selects variant
``seed % VARIANTS``.  ``record_reference.py`` regenerates them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.special import zeta

import gaussequiv as gq
from gaussequiv import cli

VARIANTS = 16
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Outputs that pass through BLAS are compared to these tolerances; CSVs
# that do not are compared by digest.
RMSE_RTOL = 1e-3
BROWNIAN_J_PER_N = 1.125
BROWNIAN_ATOL = 1e-8
MONOTONE_RTOL = 1e-9
ORACLE_RTOL = 1e-8
SPHERE_LIMIT_ATOL = 1e-3


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class MleConsistency:
    """``microergodic_experiment`` at the acceptance settings, cut in size.

    theta0 = (1, 1), equispaced grids on [0, 1], default ``OptimizerConfig``
    (5 starts, 2000 evaluations), ``workers=1``.
    """

    name = "mle_consistency"
    N_GRID = (50, 100, 200)
    REPLICATES = 20

    def __init__(self, seed: int, workdir: Path, reference: dict | None = None):
        self.variant = seed % VARIANTS
        self.reference = None if reference is None else reference[self.name][str(self.variant)]
        self.config = gq.ExperimentConfig(
            n_grid=self.N_GRID, replicates=self.REPLICATES, seed=self.variant, workers=1
        )

    def warm_up(self) -> None:
        design = gq.equispaced_interval_design(20)
        g = gq.gram(gq.ExponentialKernel(1.0, 1.0), design)
        y = gq.sample_paths(g, 1, 0).samples[0]
        problem = gq.LikelihoodProblem(
            family=lambda th: gq.ExponentialKernel(float(th[0]), float(th[1])), design=design, data=y
        )
        space = gq.ParamSpace(np.array([0.05, 0.05]), np.array([20.0, 20.0]))
        gq.fit_mle(problem, space, gq.OptimizerConfig(starts=1, max_evals=50))

    def run_pass(self):
        report = gq.microergodic_experiment(self.config)
        attempted = report.replicates * len(report.n_grid)
        return attempted, int(sum(report.failed)), report

    def check(self, report) -> list:
        r = [float(v) for v in report.rmse_microergodic]
        checks = [
            ("no failed replicates", sum(report.failed) == 0, f"failed {list(report.failed)}"),
            # with 20 replicates a single refinement step can invert by chance
            # (variant 0: 0.161 -> 0.174), so the trend is checked over the
            # whole 4x refinement, where the expected RMSE halves
            ("microergodic RMSE decreases from smallest to largest n", r[-1] < r[0], f"{r}"),
            (
                "microergodic RMSE below rmse_sigma2 at largest n",
                r[-1] < float(report.rmse_sigma2[-1]),
                f"{r[-1]} vs {float(report.rmse_sigma2[-1])}",
            ),
        ]
        if self.reference is not None:
            for key in ("rmse_sigma2", "rmse_beta", "rmse_microergodic"):
                got = np.asarray(getattr(report, key), dtype=float)
                want = np.asarray(self.reference[key], dtype=float)
                ok = got.shape == want.shape and bool(np.allclose(got, want, rtol=RMSE_RTOL, atol=0.0))
                checks.append((f"{key} matches reference to rtol {RMSE_RTOL}", ok, f"{got.tolist()} vs {want.tolist()}"))
        return checks

    def cleanup(self, report) -> None:
        pass


class NestedTrace:
    """Nested J traces and RKHS tensor norms: dense O(n^3) work.

    Dyadic interval designs up to 2048 points on [0, b] for three kernel
    pairs, then a Schoenberg pair on Fibonacci sphere designs up to 1024
    points (cubic-decay spectrum, K = 60).  The seed draws b and the
    coefficient-ratio offset c.
    """

    name = "nested_trace"
    DYADIC_MAX = 2048
    SPHERE_SIZES = (16, 32, 64, 128, 256, 512, 1024)
    K = 60
    ORACLE_SIZE = 256

    def __init__(self, seed: int, workdir: Path, reference: dict | None = None):
        rng = np.random.default_rng(seed)
        b = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.5, 1.5))
        orth, equiv = gq.VerdictLabel.ORTHOGONALITY, gq.VerdictLabel.EQUIVALENCE
        self.pairs = {
            "brownian_1_vs_2": (gq.BrownianKernel(1.0), gq.BrownianKernel(2.0), orth),
            "exp_equal_micro": (gq.ExponentialKernel(1.0, 2.0), gq.ExponentialKernel(math.sqrt(2.0), 1.0), equiv),
            "exp_1_vs_2": (gq.ExponentialKernel(1.0, 1.0), gq.ExponentialKernel(1.0, 2.0), orth),
        }
        self.interval_designs = gq.dyadic_interval_designs(self.DYADIC_MAX, (0.0, b))
        self.sphere_designs = gq.fibonacci_sphere_designs(self.SPHERE_SIZES)
        k = np.arange(self.K + 1, dtype=float)
        a2 = (k + 1.0) ** -3
        self.s1 = gq.SchoenbergSpectrum(3, a2 * (1.0 + c / (k + 1.0)))
        self.s2 = gq.SchoenbergSpectrum(3, a2)

    def warm_up(self) -> None:
        k1, k2, _ = self.pairs["exp_1_vs_2"]
        gq.dichotomy_diagnostic(gq.j_divergence_trace(k1, k2, self.interval_designs[:5]))
        sk2 = gq.SchoenbergKernel(self.s2)
        d = self.sphere_designs[0]
        gq.tensor_norm_finite(gq.gram(sk2, d), gq.SchoenbergKernel(self.s1).matrix(d.coords) - sk2.matrix(d.coords))

    def run_pass(self):
        out = {"traces": {}, "verdicts": {}}
        for name, (k1, k2, _) in self.pairs.items():
            trace = gq.j_divergence_trace(k1, k2, self.interval_designs)
            out["traces"][name] = trace
            out["verdicts"][name] = gq.dichotomy_diagnostic(trace)
        sk1, sk2 = gq.SchoenbergKernel(self.s1), gq.SchoenbergKernel(self.s2)
        out["traces"]["schoenberg"] = gq.j_divergence_trace(sk1, sk2, self.sphere_designs)
        norms = []
        for d in self.sphere_designs:
            diff = sk1.matrix(d.coords) - sk2.matrix(d.coords)
            norms.append(gq.tensor_norm_finite(gq.gram(sk2, d), diff))
        out["tensor_norms"] = norms
        out["sphere_sum"] = gq.sphere_equivalence_sum(self.s1, self.s2, self.K).final
        attempted = 2 * len(self.pairs) + 1 + len(norms) + 1
        return attempted, 0, out

    def check(self, out) -> list:
        checks = []
        bt = out["traces"]["brownian_1_vs_2"]
        dev = max(abs(float(v) / n - BROWNIAN_J_PER_N) for n, v in zip(bt.sizes, bt.values))
        checks.append(("Brownian J(n)/n = 1.125", dev <= BROWNIAN_ATOL, f"max deviation {dev:.3g}"))
        for name, (_, _, label) in self.pairs.items():
            got = out["verdicts"][name].label
            checks.append((f"verdict {name}", got == label, f"{got.value}, expected {label.value}"))
        for name, trace in out["traces"].items():
            v = [float(x) for x in trace.values]
            ok = all(b >= a - MONOTONE_RTOL * abs(a) for a, b in zip(v, v[1:]))
            checks.append((f"trace {name} non-decreasing", ok, f"{v}"))
        norms, bound = out["tensor_norms"], out["sphere_sum"]
        ok = all(b >= a - MONOTONE_RTOL * abs(a) for a, b in zip(norms, norms[1:]))
        checks.append(("tensor norms non-decreasing", ok, f"{norms}"))
        ok = all(v <= bound * (1.0 + MONOTONE_RTOL) for v in norms)
        checks.append(("tensor norms bounded by sphere_equivalence_sum", ok, f"{norms[-1]} <= {bound}"))
        # dense oracle: J from explicit solves, independent of the Cholesky path
        k1, k2, _ = self.pairs["exp_1_vs_2"]
        trace = out["traces"]["exp_1_vs_2"]
        i = trace.sizes.index(self.ORACLE_SIZE)
        coords = self.interval_designs[i].coords
        r1, r2 = k1.matrix(coords), k2.matrix(coords)
        n = self.ORACLE_SIZE
        oracle = 0.5 * (np.trace(np.linalg.solve(r2, r1)) + np.trace(np.linalg.solve(r1, r2))) - n
        rel = abs(float(trace.values[i]) - oracle) / abs(oracle)
        checks.append((f"J({n}) matches the dense oracle", rel <= ORACLE_RTOL, f"relative error {rel:.3g}"))
        return checks

    def cleanup(self, out) -> None:
        pass


class CliOutputs:
    """``cli.main`` in-process, one subcommand after another.

    ``sphere`` with the power-law model (c=1, s=2) to K = 2*10^5, ``chow``
    on two 5*10^4-atom JSON measures drawn from the seed's variant,
    ``sample`` with 250 replicates on 1024 points, and a small ``jdiv``.
    A pass is kept short (about 1.5 s on a 2-CPU host) so that a run holds
    many passes and their median is steady on a shared host.
    """

    name = "cli_outputs"
    K = 200_000
    ATOMS = 50_000
    SAMPLE_REPLICATES = 250
    SAMPLE_POINTS = 1024
    JDIV_MAX_N = 128

    def __init__(self, seed: int, workdir: Path, reference: dict | None = None):
        self.variant = seed % VARIANTS
        self.reference = None if reference is None else reference[self.name]
        self.workdir = Path(workdir)
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        m1, m2 = chow_measures(self.variant, self.ATOMS)
        (inputs / "measure1.json").write_text(json.dumps(m1))
        (inputs / "measure2.json").write_text(json.dumps(m2))
        configs = {
            "sphere": {"sphere_dim": 3, "K": self.K, "ratio_model": {"type": "power", "c": 1.0, "s": 2.0}},
            "chow": {"measure1": "measure1.json", "measure2": "measure2.json", "N": self.ATOMS},
            "sample": {
                "kernel": {"variant": "exponential", "sigma": 1.0, "beta": 1.0},
                "design": {"type": "equispaced_interval", "n": self.SAMPLE_POINTS, "domain": [0, 1]},
                "replicates": self.SAMPLE_REPLICATES,
                "seed": seed,
            },
            "jdiv": {
                "kernel1": {"variant": "brownian", "sigma": 1.0},
                "kernel2": {"variant": "brownian", "sigma": 2.0},
                "designs": {"type": "dyadic_interval", "max_n": self.JDIV_MAX_N, "domain": [0, 1]},
            },
        }
        self.configs = {}
        for sub, cfg in configs.items():
            path = inputs / f"{sub}.json"
            path.write_text(json.dumps(cfg))
            self.configs[sub] = path
        self._passes = 0

    def warm_up(self) -> None:
        out = self.workdir / "warmup"
        cli.main(["jdiv", "--config", str(self.configs["jdiv"]), "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self):
        self._passes += 1
        base = self.workdir / f"pass{self._passes}"
        codes = {}
        for sub, path in self.configs.items():
            codes[sub] = cli.main([sub, "--config", str(path), "--out", str(base / sub)])
        return len(codes), sum(1 for c in codes.values() if c != 0), (base, codes)

    def bytes_written(self, out) -> int:
        base, _ = out
        return sum(p.stat().st_size for p in base.rglob("*") if p.is_file())

    def check(self, out) -> list:
        base, codes = out
        checks = [(f"{sub} exit code 0", code == 0, f"exit {code}") for sub, code in codes.items()]
        if any(code != 0 for code in codes.values()):
            return checks
        crit = base / "sphere" / "criterion.csv"
        rows = _count_rows(crit) - 1
        checks.append(("sphere criterion.csv rows", rows == self.K + 1, f"{rows}"))
        with open(crit, "rb") as fh:
            fh.seek(-200, 2)
            final = float(fh.read().decode().strip().splitlines()[-1].split(",")[2])
        limit = 2.0 * float(zeta(3)) - float(zeta(4))
        checks.append(("sphere final near 2 zeta(3) - zeta(4)", abs(final - limit) <= SPHERE_LIMIT_ATOL, f"{final} vs {limit}"))
        chow = base / "chow" / "criterion.csv"
        rows = _count_rows(chow) - 1
        checks.append(("chow criterion.csv rows", rows == self.ATOMS, f"{rows}"))
        samples = base / "sample" / "samples.csv"
        with open(samples, newline="") as fh:
            width = len(next(csv.reader(fh)))
        rows = _count_rows(samples)
        ok = rows == self.SAMPLE_REPLICATES and width == self.SAMPLE_POINTS
        checks.append(("samples.csv shape", ok, f"{rows} x {width}"))
        rows = _count_rows(base / "jdiv" / "trace.csv") - 1
        checks.append(("jdiv trace.csv rows", rows == self.JDIV_MAX_N.bit_length() - 1, f"{rows}"))
        label = json.loads((base / "jdiv" / "verdict.json").read_text())["verdict"]["label"]
        checks.append(("jdiv verdict", label == gq.VerdictLabel.ORTHOGONALITY.value, label))
        if self.reference is not None:
            got = sha256_file(crit)
            checks.append(("sphere criterion.csv digest", got == self.reference["sphere_sha256"], got))
            got = sha256_file(chow)
            want = self.reference["chow_sha256"][str(self.variant)]
            checks.append(("chow criterion.csv digest", got == want, got))
        return checks

    def cleanup(self, out) -> None:
        shutil.rmtree(out[0], ignore_errors=True)


def chow_measures(variant: int, atoms: int) -> tuple[dict, dict]:
    """Two atomic measures on the same labels whose mass ratio tends to 1."""
    rng = np.random.default_rng([variant, atoms])
    n = np.arange(1, atoms + 1)
    m2 = rng.uniform(0.5, 2.0, atoms)
    m1 = m2 * np.exp(rng.normal(0.0, 0.2, atoms) / n)
    dims = rng.integers(1, 6, atoms)

    def measure(masses):
        return {
            "atoms": [
                {"label": f"a{i}", "mass": m, "dim": d}
                for i, m, d in zip(n.tolist(), masses.tolist(), dims.tolist())
            ]
        }

    return measure(m1), measure(m2)


WORKLOADS = {w.name: w for w in (MleConsistency, NestedTrace, CliOutputs)}
