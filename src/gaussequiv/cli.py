"""Command-line front end: reproducible experiments from JSON configs.

Every run reads one JSON config and computes all its outputs; only then is
the output directory created and the outputs written, ``manifest.json`` last,
recording the subcommand, a digest of the config bytes, the effective seed,
the tool version and a timestamp.  CSV outputs are byte-identical across
repeated runs with the same config and seed on one platform and release.

Exit codes: 0 success, 2 malformed or unreadable config (or an output that
cannot be written), 3 singular Gram matrix, 4 spectral support mismatch
(orthogonality), 5 optimization failure rate above 20%.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__
from .designs import (
    dyadic_interval_designs,
    dyadic_interval_points,
    equispaced_interval_design,
    fibonacci_sphere_designs,
    sphere_sequence,
)
from .divergence import dichotomy_diagnostic, j_divergence_trace, trace_to_csv, trace_to_json
from .errors import AtomMismatchError, ContractError, OptimizationFailedError, SingularGramError
from .kernels import Design, SchoenbergSpectrum, _integer, _number, gram, kernel_from_json
from .mle import ExperimentConfig, OptimizerConfig, microergodic_experiment, report_to_csv
from .sampler import batch_to_csv, sample_paths
from .spectral import (
    AtomicSpectralMeasure,
    CriterionResult,
    chow_sum,
    criterion_to_csv,
    ratio_model_from_json,
    spectra_from_ratio_model,
    sphere_equivalence_sum,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_ATOM_MISMATCH = 4
EXIT_OPTIMIZATION = 5


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _fail(msg: str, code: int) -> int:
    print(f"gaussequiv: error: {msg}", file=sys.stderr)
    return code


def _object(obj, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ContractError(f"{name} must be a JSON object, not {type(obj).__name__}")
    return obj


def _design_from_config(obj: dict) -> Design:
    kind = obj["type"]
    if kind == "equispaced_interval":
        return equispaced_interval_design(obj["n"], obj.get("domain", (0.0, 1.0)))
    if kind == "dyadic_interval":
        return Design.interval(dyadic_interval_points(obj["n"], obj.get("domain", (0.0, 1.0))))
    if kind == "fibonacci_sphere":
        return Design.on_sphere(sphere_sequence(obj["n"], obj.get("sphere_dim", 3)))
    if kind == "explicit":
        return Design.from_json(obj)
    raise ContractError(f"unknown design type {kind!r}")


def _nested_designs_from_config(obj: dict) -> list[Design]:
    kind = obj["type"]
    if kind == "dyadic_interval":
        return dyadic_interval_designs(obj["max_n"], obj.get("domain", (0.0, 1.0)))
    if kind == "fibonacci_sphere":
        return fibonacci_sphere_designs(obj["sizes"], obj.get("sphere_dim", 3))
    raise ContractError(f"unknown nested design type {kind!r}")


def _criterion_outputs(result: CriterionResult, index_name: str, extra: dict) -> dict:
    verdict = {"verdict": result.verdict.value, "final": result.final, "tail_bound": result.tail_bound}
    writer = partial(criterion_to_csv, result, index_name=index_name)
    return {"criterion.csv": writer, "verdict.json": {**verdict, **extra}}


# ---------------------------------------------------------------------------
# subcommand bodies: each returns {file name: JSON payload or CSV writer}
# ---------------------------------------------------------------------------


def _run_jdiv(config: dict, seed, args) -> dict:
    k1 = kernel_from_json(config["kernel1"])
    k2 = kernel_from_json(config["kernel2"])
    trace = j_divergence_trace(k1, k2, _nested_designs_from_config(config["designs"]))
    verdict = dichotomy_diagnostic(trace)
    return {"trace.csv": partial(trace_to_csv, trace), "verdict.json": trace_to_json(trace, verdict)}


def _run_sphere(config: dict, seed, args) -> dict:
    d, last_k = config["sphere_dim"], config["K"]
    model = ratio_model_from_json(config["ratio_model"]) if "ratio_model" in config else None
    if "spectrum1" in config or "spectrum2" in config:
        s1 = SchoenbergSpectrum(d, _number(config["spectrum1"], "spectrum1", array=True))
        s2 = SchoenbergSpectrum(d, _number(config["spectrum2"], "spectrum2", array=True))
    elif model is not None:
        s1, s2 = spectra_from_ratio_model(model, d, last_k)
    else:
        raise ContractError("config must provide explicit spectra or a ratio_model")
    result = sphere_equivalence_sum(s1, s2, last_k, tail_model=model)
    return _criterion_outputs(result, "k", {"sphere_dim": s1.sphere_dim, "K": int(result.indices[-1])})


def _run_chow(config: dict, seed, args) -> dict:
    base = Path(args.config).resolve().parent
    m1 = AtomicSpectralMeasure.from_json(json.loads((base / config["measure1"]).read_text()))
    m2 = AtomicSpectralMeasure.from_json(json.loads((base / config["measure2"]).read_text()))
    model = ratio_model_from_json(config["ratio_model"]) if "ratio_model" in config else None
    bound = _number(config["weight_bound"], "weight_bound") if "weight_bound" in config else None
    result = chow_sum(m1, m2, config["N"], tail_model=model, tail_weight_bound=bound)
    return _criterion_outputs(result, "n", {"N": len(result.terms)})


def _run_sample(config: dict, seed, args) -> dict:
    kernel = kernel_from_json(config["kernel"])
    design = _design_from_config(config["design"])
    batch = sample_paths(gram(kernel, design), config["replicates"], seed)
    meta = {
        "seed": batch.seed,
        "kernel": config["kernel"],
        "design": design.to_json(),
        "replicates": batch.replicates,
    }
    return {"samples.csv": partial(batch_to_csv, batch), "sample_meta.json": meta}


def _run_mle(config: dict, seed, args) -> dict:
    present = {
        k: _number(config[k], k, array=True).tolist() for k in ("theta0", "domain", "box") if k in config
    }
    if "box" in present:
        present["box_lower"], present["box_upper"] = present.pop("box")
    exp_config = ExperimentConfig(
        n_grid=config["n_grid"],
        replicates=config["replicates"],
        seed=seed,
        optimizer=OptimizerConfig(**_object(config.get("optimizer", {}), "optimizer")),
        **{k: tuple(v) for k, v in present.items()},
    )
    report = microergodic_experiment(exp_config)
    failed, attempted = sum(report.failed), report.replicates * len(report.n_grid)
    if failed > 0.2 * attempted:
        raise OptimizationFailedError(f"optimization failed for {failed} of {attempted} replicates")
    return {"consistency.csv": partial(report_to_csv, report)}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# name -> (handler, one-line help, epilog listing the config keys and outputs)
_SUBCOMMANDS = {
    "jdiv": (_run_jdiv, "divergence trace of two kernels along nested designs, with verdict", """\
config keys:
  kernel1, kernel2   kernel descriptions, e.g. {"variant": "brownian", "sigma": 1.0},
                     {"variant": "exponential", "sigma": 1.0, "beta": 1.0} or
                     {"variant": "schoenberg", "d": 3, "coeffs": [...]}
  designs            nested design generator, one of
                     {"type": "dyadic_interval", "max_n": 128, "domain": [0, 1]}
                     {"type": "fibonacci_sphere", "sizes": [20, 40, 80], "sphere_dim": 3}
outputs: trace.csv (n,J,slope_estimate), verdict.json, manifest.json"""),
    "sphere": (_run_sphere, "spherical-spectrum equivalence criterion sum", """\
config keys:
  sphere_dim         ambient dimension d >= 3
  K                  last degree of the partial sum
  spectrum1,
  spectrum2          explicit coefficient lists (optional when ratio_model given)
  ratio_model        closed-form tail model, {"type": "power", "c": 1.0, "s": 2.0}
                     or {"type": "constant", "alpha": 4.0}; when spectra are
                     omitted it also generates them (a2 = 1, a1 = ratio)
outputs: criterion.csv (k,term,partial_sum), verdict.json, manifest.json"""),
    "chow": (_run_chow, "dimension-weighted atom criterion sum for two atomic measures", """\
config keys:
  measure1, measure2 paths to atomic-measure JSON files, relative to the config;
                     format {"atoms": [{"label": "k0", "mass": 1.0, "dim": 1}, ...]}
  N                  number of leading atoms to sum
  ratio_model        optional closed-form tail model (see sphere)
  weight_bound       optional bound >= 1 on atom dimensions beyond N (default: max seen)
outputs: criterion.csv (n,term,partial_sum), verdict.json, manifest.json"""),
    "sample": (_run_sample, "draw seeded Gaussian replicates for a kernel on a design", """\
config keys:
  kernel             kernel description (see jdiv)
  design             one of {"type": "equispaced_interval", "n": 8, "domain": [0, 1]},
                     {"type": "dyadic_interval", "n": 8, "domain": [0, 1]},
                     {"type": "fibonacci_sphere", "n": 20, "sphere_dim": 3},
                     {"type": "explicit", "geometry": {...}, "points": [[...], ...]}
  replicates         number of rows to draw
  seed               unsigned generator seed (--seed overrides)
outputs: samples.csv (one replicate per row), sample_meta.json, manifest.json"""),
    "mle": (_run_mle, "microergodic ML consistency experiment for the exponential kernel", """\
config keys:
  n_grid             strictly increasing grid sizes, e.g. [50, 100, 200, 400]
  replicates         replicates per grid size (>= 20)
  seed               unsigned base seed (--seed overrides)
  theta0             true (sigma, beta), default [1.0, 1.0]
  domain             observation interval, default [0.0, 1.0]
  box                parameter box [[lo_sigma, lo_beta], [hi_sigma, hi_beta]],
                     default [[0.05, 0.05], [20.0, 20.0]]
  optimizer          optional overrides: starts, tol_x, tol_f, max_evals
outputs: consistency.csv (n,rmse_sigma2,rmse_beta,rmse_microergodic,failed_replicates),
         manifest.json"""),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussequiv",
        description="Equivalence vs. orthogonality experiments for centered Gaussian processes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, summary, epilog) in _SUBCOMMANDS.items():
        p = sub.add_parser(
            name,
            help=summary,
            epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory (default: current directory)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config_bytes = Path(args.config).read_bytes()
        config = _object(json.loads(config_bytes), "config")
        seed = args.seed if args.seed is not None else config.get("seed")
        seed = None if seed is None else _integer(seed, "seed")
        if seed is not None and seed < 0:
            raise ContractError(f"seed must be >= 0, not {seed}")
        if seed is None and args.subcommand in ("sample", "mle"):
            raise ContractError(f"{args.subcommand} requires a seed (config key 'seed' or --seed)")
        outputs = args.handler(config, seed, args)
        outputs["manifest.json"] = {
            "subcommand": args.subcommand,
            "config_digest": hashlib.sha256(config_bytes).hexdigest(),
            "seed": seed,
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, output in outputs.items():
            if isinstance(output, dict):
                _write_json(outdir / name, output)
            else:
                output(outdir / name)
        return EXIT_OK
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"invalid config: {exc}", EXIT_CONFIG)
    except OSError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except SingularGramError as exc:
        return _fail(str(exc), EXIT_SINGULAR)
    except AtomMismatchError as exc:
        return _fail(str(exc), EXIT_ATOM_MISMATCH)
    except OptimizationFailedError as exc:
        return _fail(str(exc), EXIT_OPTIMIZATION)


if __name__ == "__main__":
    raise SystemExit(main())
