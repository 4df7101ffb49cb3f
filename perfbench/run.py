#!/usr/bin/env python3
"""Benchmark of gaussequiv: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mle_consistency --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics;
the untraced passes give ``trace_overhead_frac``.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it (prefixed ``#``) list the environment, the metrics and failed checks.
Details, every check and the spans of the traced passes are written under
``.perfbench_work/`` in the checkout.

The library is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("mle_consistency", "nested_trace", "cli_outputs")


def import_library():
    """Import gaussequiv from the checkout's ``src/``; exit 2 if it is not there."""
    package = SRC / "gaussequiv"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no library source at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import gaussequiv

    if Path(gaussequiv.__file__).resolve().parent != package.resolve():
        print(f"perfbench: gaussequiv imported from {gaussequiv.__file__}, not {package}", file=sys.stderr)
        raise SystemExit(2)
    return gaussequiv


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _openblas_runtime(path: str) -> dict:
    import ctypes

    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            return {"library": path, "threads": get_threads(), "config": get_config().decode()}
    return {"library": path, "threads": None, "config": None}


def environment() -> dict:
    """CPU count and model, Python/numpy/scipy versions, BLAS build and runtime threads."""
    import platform

    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        with open("/proc/self/maps") as fh:
            loaded = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    except OSError:
        loaded = []
    blas = {}
    for name, module in (("numpy", numpy), ("scipy", scipy)):
        build = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        entry = {"name": build.get("name"), "version": build.get("version")}
        owned = [p for p in loaded if f"/{name}" in p]
        if owned:
            try:
                entry.update(_openblas_runtime(owned[0]))
            except OSError as exc:
                entry["runtime_error"] = str(exc)
        blas[name] = entry
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _cpu_times() -> tuple[float, float]:
    """User and system CPU seconds of this process, all its threads included."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the library, generate the inputs and warm up."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for k in range(SETUP_PROBES):
        workdir = WORK / f"probe-{workload}-{os.getpid()}-{k}"
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(workdir)],
            check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def run_passes(wl, seconds: float, trace: bool, tracer) -> list[dict]:
    """Closed loop of passes until ``seconds`` would be exceeded.

    With tracing, passes alternate untraced / traced, at least one of each.
    """
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        if traced:
            tracer.install()
        gc.collect()
        c0, t0 = _cpu_times(), time.perf_counter()
        try:
            attempted, failed, out = wl.run_pass()
        except Exception:
            traceback.print_exc()
            attempted, failed, out = 1, 1, None
        finally:
            t1, c1 = time.perf_counter(), _cpu_times()
            if traced:
                tracer.uninstall()
        checks = wl.check(out) if out is not None else []
        written = wl.bytes_written(out) if out is not None and hasattr(wl, "bytes_written") else 0
        if out is not None:
            wl.cleanup(out)
        records.append({
            "traced": traced, "wall_s": t1 - t0, "cpu_s": sum(c1) - sum(c0),
            "user_s": c1[0] - c0[0], "sys_s": c1[1] - c0[1],
            "attempted": attempted, "failed": failed, "bytes_written": written,
            "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        })
        typical = statistics.median(r["wall_s"] for r in records)
        enough = len(records) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + typical > seconds:
            return records


def dpotrf_reference_s(sizes: Counter) -> float:
    """Raw ``dpotrf`` replayed on the factored sizes: sum of count * median time."""
    import numpy as np
    from scipy.linalg.lapack import dpotrf

    total = 0.0
    for n, count in sorted(sizes.items()):
        t = np.linspace(0.0, 1.0, n)
        a = np.exp(-np.abs(t[:, None] - t[None, :]))
        times = []
        for _ in range(max(3, min(50, count))):
            t0 = time.perf_counter()
            dpotrf(a, lower=1, clean=1, overwrite_a=0)
            times.append(time.perf_counter() - t0)
        total += count * statistics.median(times)
    return total


def per_layer(spans, summary: dict, passes: int, records: list[dict], bytes_written: float) -> dict:
    """Per-layer metrics per traced pass; 0 for a layer the workload does not call."""

    def rec(name):
        return summary.get(name, {"calls": 0, "failed": 0, "incl_s": 0.0, "self_s": 0.0, "spans": []})

    def infos(name):
        return [spans[i][5] for i in rec(name)["spans"]]

    m: dict = {}
    for name in (
        "kernels.gram_from_matrix", "kernels.matrix", "kernels.gram", "kernels.design",
        "kernels.harmonic_dimensions", "designs", "divergence.gaussian_logpdf",
        "divergence.j_divergence", "divergence.j_divergence_trace", "rkhs.tensor_norm_finite",
        "spectral.sphere_equivalence_sum", "spectral.chow_sum", "sampler.sample_paths",
        "mle.fit_mle", "mle.neg_log_likelihood", "mle.minimize", "cli.main", "cli.write",
    ):
        r = rec(name)
        m[f"{name}.calls"] = r["calls"] / passes
        m[f"{name}.self_s"] = r["self_s"] / passes
    m["kernels.gram_from_matrix.failed"] = rec("kernels.gram_from_matrix")["failed"] / passes

    sizes = Counter(n for n in infos("kernels.gram_from_matrix") if n is not None)
    m["kernels.dpotrf_ref_s"] = dpotrf_reference_s(sizes) / passes
    gfm_incl = rec("kernels.gram_from_matrix")["incl_s"] / passes
    m["kernels.gram_overhead_ratio"] = gfm_incl / m["kernels.dpotrf_ref_s"] if sizes else 0.0
    m["kernels.chol_flops"] = sum(c * n**3 / 3.0 for n, c in sizes.items()) / passes
    gfm_self = m["kernels.gram_from_matrix.self_s"]
    m["kernels.chol_gflops"] = m["kernels.chol_flops"] / gfm_self / 1e9 if gfm_self else 0.0

    j = [v for v in infos("divergence.j_divergence") if v is not None]
    m["divergence.j_divergence.negative"] = sum(1 for _, neg in j if neg) / passes
    m["divergence.solve_flops"] = sum(2.0 * n**3 for n, _ in j) / passes
    j_self = m["divergence.j_divergence.self_s"]
    m["divergence.solve_gflops"] = m["divergence.solve_flops"] / j_self / 1e9 if j_self else 0.0

    terms = infos("spectral.sphere_equivalence_sum") + infos("spectral.chow_sum")
    m["spectral.terms"] = sum(t for t in terms if t is not None) / passes

    fits = rec("mle.fit_mle")["calls"]
    nll = rec("mle.neg_log_likelihood")["calls"]
    m["mle.evals_per_fit"] = nll / fits if fits else 0.0
    m["mle.penalized_frac"] = sum(1 for p in infos("mle.neg_log_likelihood") if p) / nll if nll else 0.0
    # (parent fit span, (nfev, success, fun)) per optimizer start
    starts = [(spans[i][3], spans[i][5]) for i in rec("mle.minimize")["spans"] if spans[i][5] is not None]
    m["mle.starts"] = len(starts) / passes
    m["mle.starts_maxfev"] = sum(1 for _, (nfev, ok, fun) in starts if not ok) / passes
    by_fit: dict = {}
    for parent, (nfev, ok, fun) in starts:
        by_fit.setdefault(parent, []).append((nfev, fun))
    total_fev = sum(nfev for runs in by_fit.values() for nfev, _ in runs)
    best_fev = sum(min(runs, key=lambda r: r[1])[0] for runs in by_fit.values())
    m["mle.best_start_eval_frac"] = best_fev / total_fev if total_fev else 0.0
    fit_ms: dict = {}
    for i in rec("mle.fit_mle")["spans"]:
        fit_ms.setdefault(spans[i][5], []).append(1e3 * (spans[i][2] - spans[i][1]))
    for n in (50, 100, 200):
        m[f"mle.fit_p50_ms.n{n}"] = statistics.median(fit_ms[n]) if n in fit_ms else 0.0

    m["cli.bytes_written"] = bytes_written
    written = sum(b for b in infos("cli.write") if b) / passes
    w_self = m["cli.write.self_s"]
    m["cli.write_mb_per_s"] = written / 1e6 / w_self if w_self else 0.0

    untraced = [r["wall_s"] for r in records if not r["traced"]]
    traced = [r["wall_s"] for r in records if r["traced"]]
    m["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process and print all metrics by name and unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, v in result["metrics"].items():
            print(f"# {name:16s} {metric:40s} {v['value']:.6g} {v['unit']}")
            combined["metrics"][f"{name}.{metric}"] = v
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)

    from tracer import Tracer, summarize
    from workloads import WORKLOADS, load_reference

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup = setup_seconds(args.workload, args.seed)
        wl = WORKLOADS[args.workload](args.seed, workdir, load_reference())
        wl.warm_up()
        tracer = Tracer()
        records = run_passes(wl, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] + len(r["checks"]) for r in records)
    failed = sum(r["failed"] + sum(not c["ok"] for c in r["checks"]) for r in records)
    correct = failed == 0 and all(r["checks"] for r in records)
    untraced = [r for r in records if not r["traced"]]
    if args.trace:
        traced = [r for r in records if r["traced"]]
        summary = summarize(tracer.spans)
        written = statistics.median(r["bytes_written"] for r in traced)
        values = per_layer(tracer.spans, summary, len(traced), records, written)
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    env = environment()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_runs_s": setup, "passes": records, "metrics": metrics,
        "untraced_targets": tracer.missing,
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print("# env " + json.dumps(env))
    print(f"# {args.workload}: {len(records)} passes, seed {args.seed}")
    for r in records:
        for c in r["checks"]:
            if not c["ok"]:
                print(f"# FAILED check: {c['name']} ({c['detail']})")
    for name, v in metrics.items():
        print(f"# {name:40s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
