"""The size-scoped OpenBLAS thread policy: one thread for calls of work <= 512**3, and for seeded draws."""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
import scipy

from gaussequiv import (
    ExponentialKernel,
    GramMatrix,
    SchoenbergKernel,
    SchoenbergSpectrum,
    SingularGramError,
    divergence,
    empirical_covariance,
    equispaced_interval_design,
    fibonacci_sphere_designs,
    gram,
    j_divergence,
    j_divergence_trace,
    kernels,
    rkhs,
    sample_paths,
    sampler,
    tensor_norm_finite,
)
from gaussequiv import _blas
from gaussequiv._blas import blas_scope

BOUND = 512**3


def counts(setters=None):
    return [get() for get, _ in (_blas._SETTERS if setters is None else setters)]


@pytest.fixture
def caller_counts():
    # every copy at 2 threads, whatever OPENBLAS_NUM_THREADS says; restored after
    before = counts()
    for _, set_count in _blas._SETTERS:
        set_count(2)
    yield [2] * len(before)
    for (_, set_count), count in zip(_blas._SETTERS, before):
        set_count(count)


def test_both_scipy_openblas_copies_found():
    names = [m.__config__.CONFIG["Build Dependencies"]["blas"]["name"] for m in (np, scipy)]
    assert len(_blas._SETTERS) == names.count("scipy-openblas")


@pytest.mark.skipif(not _blas._SETTERS, reason="no OpenBLAS thread setter exported")
class TestScope:
    @pytest.mark.parametrize("work", [0, 1, 64**3, BOUND])
    def test_one_thread_at_most_the_bound(self, caller_counts, work):
        with blas_scope(work):
            assert counts() == [1] * len(caller_counts)
        assert counts() == caller_counts

    @pytest.mark.parametrize("work", [BOUND + 1, 1024**3])
    def test_callers_count_above_the_bound(self, caller_counts, work):
        with blas_scope(work):
            assert counts() == caller_counts
        assert counts() == caller_counts

    def test_restored_after_singular_gram(self, caller_counts):
        with pytest.raises(SingularGramError):
            GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert counts() == caller_counts

    def test_nested_scopes_restore(self, caller_counts):
        with blas_scope(BOUND + 1):
            with blas_scope(10):
                with blas_scope(20):
                    assert counts() == [1] * len(caller_counts)
                assert counts() == [1] * len(caller_counts)
            assert counts() == caller_counts
        assert counts() == caller_counts

    def test_scopes_closed_out_of_order_restore(self, caller_counts):
        first, second = blas_scope(1), blas_scope(1)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert counts() == [1] * len(caller_counts)
        second.__exit__(None, None, None)
        assert counts() == caller_counts

    def test_scopes_in_many_threads_restore(self, caller_counts):
        # more threads than CPUs, switching every microsecond: a scope that
        # saved a count another thread's scope had set would leave one thread
        def open_scopes():
            for _ in range(1000):
                with blas_scope(1):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=open_scopes) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counts() == caller_counts

    @pytest.mark.parametrize("n, threads", [(512, 1), (513, 2)])
    def test_factor_runs_on_the_policy_count(self, caller_counts, monkeypatch, n, threads):
        seen = []

        def dpotrf(*args, **kwargs):
            seen.append(counts())
            return real(*args, **kwargs)

        real = kernels.dpotrf
        monkeypatch.setattr(kernels, "dpotrf", dpotrf)
        gram(ExponentialKernel(1.0, 1.0), equispaced_interval_design(n, (0.0, 1.0)))
        assert seen == [[threads] * len(caller_counts)]
        assert counts() == caller_counts

    def test_seeded_draw_runs_on_one_thread_above_the_bound(self, caller_counts, monkeypatch):
        # n = 1024 and 250 replicates put the draw's factor and product above
        # the bound; a plain gram of that size keeps the caller's count
        seen = []

        def dpotrf(*args, **kwargs):
            seen.append(("dpotrf", counts()))
            return real(*args, **kwargs)

        @contextmanager
        def recording(work):
            with blas_scope(work):
                seen.append((work, counts()))
                yield

        real = kernels.dpotrf
        monkeypatch.setattr(kernels, "dpotrf", dpotrf)
        monkeypatch.setattr(sampler, "blas_scope", recording)
        n, m, one = 1024, 250, [1] * len(caller_counts)
        kernel, design = ExponentialKernel(1.0, 1.0), equispaced_interval_design(n, (0.0, 1.0))
        sampler._seeded_draw(kernel, design, m, 5)
        assert seen == [(0, one), ("dpotrf", one), (m * n**2, one)]
        assert counts() == caller_counts
        seen.clear()
        gram(kernel, design)
        assert seen == [("dpotrf", caller_counts)]

    @pytest.mark.blas_pin
    @pytest.mark.parametrize("n", [512, 4096])
    def test_solve_has_the_same_bits_on_one_thread_and_two(self, caller_counts, n):
        # half_solve opens no scope: a vector or an (n, 3) dtrsm gives one answer at any count
        g = gram(ExponentialKernel(1.0, 1.0), equispaced_interval_design(n, (0.0, 1.0)))
        b = np.random.default_rng(n).standard_normal((n, 3))
        solved = []
        for threads in (1, 2):
            for _, set_count in _blas._SETTERS:
                set_count(threads)
            assert counts() == [threads] * len(caller_counts)
            solved.append([g.half_solve(b[:, 0]).tobytes(), g.half_solve(b).tobytes()])
        assert solved[0] == solved[1]


def test_no_setters_is_a_no_op(monkeypatch):
    found = _blas._SETTERS
    before = counts(found)
    monkeypatch.setattr(_blas, "_SETTERS", ())
    with blas_scope(1):
        assert counts(found) == before
    assert counts(found) == before


def test_each_call_site_passes_its_work(monkeypatch):
    # n^3 for a factor, solve, inverse or dsygst, m n^2 for the sampler's two
    # products, 0 around a seeded draw; half_solve opens none
    works = []

    def recording(work):
        works.append(work)
        return blas_scope(work)

    for module in (kernels, divergence, rkhs, sampler):
        monkeypatch.setattr(module, "blas_scope", recording)
    n, m = 12, 5
    design = equispaced_interval_design(n, (0.0, 1.0))
    g1, g2 = gram(ExponentialKernel(1.0, 1.0), design), gram(ExponentialKernel(1.0, 2.0), design)
    assert works == [n**3, n**3]
    cases = [
        (lambda: g1.half_solve(np.ones(n)), []),
        (lambda: g1.half_solve(np.ones((n, 3))), []),
        (lambda: j_divergence(g1, g2), [n**3]),
        (lambda: tensor_norm_finite(g1, g2.entries - g1.entries), [n**3]),
        (lambda: empirical_covariance(sample_paths(g1, m, 3)), [m * n**2, m * n**2]),
        (lambda: sampler._seeded_draw(ExponentialKernel(1.0, 1.0), design, m, 3), [0, n**3, m * n**2]),
    ]
    for call, expected in cases:
        works.clear()
        call()
        assert works == expected
    works.clear()
    # the dense branch: two factors on the largest design, then its solve and inverse
    k = np.arange(20.0)
    k1 = SchoenbergKernel(SchoenbergSpectrum(3, (k + 1.0) ** -3))
    k2 = SchoenbergKernel(SchoenbergSpectrum(3, (k + 1.0) ** -2))
    j_divergence_trace(k1, k2, fibonacci_sphere_designs([4, 8]))
    assert works == [8**3, 8**3, 8**3]
