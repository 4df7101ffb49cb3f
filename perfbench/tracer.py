"""Span tracer for the benchmark process.

The tracer wraps public functions of the library from the outside: it
rebinds each function's name in every ``gaussequiv`` module that holds the
same object (``gaussequiv.mle.gram``, ``gaussequiv.divergence.gram``, ...),
so calls made inside the library are traced too.  Each call records a span
``(name, start, end, parent, failed, info)`` in memory; ``info`` is a small
value taken from the arguments or the result (a matrix size, a term count).

A target whose module, class or attribute no longer exists is skipped, so
its layer reports 0 calls instead of breaking the benchmark.  Spans are
recorded on one stack: the workloads call the library from a single thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

PENALTY_DEFAULT = 1e10


def _first_len(args, kwargs, out):
    entries = args[0] if args else kwargs.get("entries")
    return int(len(entries))


def _j_info(args, kwargs, out):
    return [int(args[0].n), out is not None and out < 0.0]


def _term_count(args, kwargs, out):
    return int(len(out.terms))


def _fit_n(args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    return int(len(problem.design))


def _penalized(args, kwargs, out):
    mle = sys.modules.get("gaussequiv.mle")
    return out is not None and out >= getattr(mle, "PENALTY", PENALTY_DEFAULT)


def _start_record(args, kwargs, out):
    return [int(out.nfev), bool(out.success), float(out.fun)]


def _written_path(args, kwargs, out):
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, (str, os.PathLike)):
            return os.path.getsize(a)
    return 0


# (span name, module, attribute or "Class.attribute", info taken per call)
TARGETS = [
    ("kernels.gram_from_matrix", "gaussequiv.kernels", "gram_from_matrix", _first_len),
    ("kernels.gram", "gaussequiv.kernels", "gram", None),
    ("kernels.matrix", "gaussequiv.kernels", "BrownianKernel.matrix", None),
    ("kernels.matrix", "gaussequiv.kernels", "ExponentialKernel.matrix", None),
    ("kernels.matrix", "gaussequiv.kernels", "SchoenbergKernel.matrix", None),
    ("kernels.design", "gaussequiv.kernels", "Design.interval", None),
    ("kernels.design", "gaussequiv.kernels", "Design.on_sphere", None),
    ("kernels.design", "gaussequiv.kernels", "Design.from_json", None),
    ("kernels.design", "gaussequiv.kernels", "Design.prefix", None),
    ("kernels.harmonic_dimensions", "gaussequiv.kernels", "harmonic_dimensions", None),
    ("designs", "gaussequiv.designs", "dyadic_interval_points", None),
    ("designs", "gaussequiv.designs", "dyadic_interval_designs", None),
    ("designs", "gaussequiv.designs", "equispaced_interval_design", None),
    ("designs", "gaussequiv.designs", "sphere_sequence", None),
    ("designs", "gaussequiv.designs", "fibonacci_sphere_designs", None),
    ("designs", "gaussequiv.designs", "is_prefix_nested", None),
    ("divergence.gaussian_logpdf", "gaussequiv.divergence", "gaussian_logpdf", None),
    ("divergence.j_divergence", "gaussequiv.divergence", "j_divergence", _j_info),
    ("divergence.j_divergence_trace", "gaussequiv.divergence", "j_divergence_trace", None),
    ("rkhs.tensor_norm_finite", "gaussequiv.rkhs", "tensor_norm_finite", None),
    ("spectral.sphere_equivalence_sum", "gaussequiv.spectral", "sphere_equivalence_sum", _term_count),
    ("spectral.chow_sum", "gaussequiv.spectral", "chow_sum", _term_count),
    ("sampler.sample_paths", "gaussequiv.sampler", "sample_paths", None),
    ("mle.fit_mle", "gaussequiv.mle", "fit_mle", _fit_n),
    ("mle.neg_log_likelihood", "gaussequiv.mle", "neg_log_likelihood", _penalized),
    # the optimizer as gaussequiv.mle looks it up; one span per start
    ("mle.minimize", "gaussequiv.mle", "minimize", _start_record),
    ("cli.main", "gaussequiv.cli", "main", None),
    ("cli.write", "gaussequiv.cli", "trace_to_csv", _written_path),
    ("cli.write", "gaussequiv.cli", "_write_criterion_csv", _written_path),
    ("cli.write", "gaussequiv.cli", "batch_to_csv", _written_path),
    ("cli.write", "gaussequiv.cli", "report_to_csv", _written_path),
    ("cli.write", "gaussequiv.cli", "RunManifest.write", _written_path),
]


class Tracer:
    """Records spans of wrapped calls; ``install`` / ``uninstall`` toggle tracing."""

    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out, failed = None, True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                stack.pop()
                value = None
                if info is not None:
                    try:
                        value = info(args, kwargs, out)
                    except Exception:
                        value = None
                spans[idx] = (name, start, end, parent, failed, value)

        return traced

    def _rebind_function(self, name, module, attr, info) -> bool:
        orig = getattr(module, attr, None)
        if orig is None:
            return False
        traced = self.wrap(name, orig, info)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gaussequiv" or mod_name.startswith("gaussequiv.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, orig))
        return True

    def _rebind_method(self, name, module, cls_name, attr, info) -> bool:
        cls = getattr(module, cls_name, None)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if raw is None:
            return False
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, info))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, info))
        else:
            new = self.wrap(name, raw, info)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))
        return True

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; record and return the ones that are missing."""
        missing = []
        for name, mod_name, attr, info in targets:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                missing.append(f"{mod_name}.{attr}")
                continue
            if "." in attr:
                ok = self._rebind_method(name, module, *attr.split(".", 1), info)
            else:
                ok = self._rebind_function(name, module, attr, info)
            if not ok:
                missing.append(f"{mod_name}.{attr}")
        self.missing = missing
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def write(self, path) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent, failed, info]``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def summarize(spans) -> dict:
    """Per span name: calls, failed calls, inclusive and self seconds, infos.

    Self time is a span's duration minus the durations of its direct
    children; on one stack children never overlap, so that is the time
    they cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, failed, info in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, failed, info) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "failed": 0, "incl_s": 0.0, "self_s": 0.0, "spans": []})
        rec["calls"] += 1
        rec["failed"] += int(failed)
        rec["incl_s"] += end - start
        rec["self_s"] += end - start - child[i]
        rec["spans"].append(i)
    return out
