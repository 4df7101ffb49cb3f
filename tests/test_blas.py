"""The OpenBLAS thread policy: one thread for every library BLAS and LAPACK call, at any size."""

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


def counts(setters=None):
    return [get() for get, _ in (_blas._SETTERS if setters is None else setters)]


def schoenberg_pair():
    # the nested_trace sphere pair, K = 60: two threads change its n = 1024 bits
    k = np.arange(61.0)
    spectra = ((k + 1.0) ** -3 * (1.0 + 0.7 / (k + 1.0)), (k + 1.0) ** -3)
    return tuple(SchoenbergKernel(SchoenbergSpectrum(3, a)) for a in spectra)


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
    @pytest.mark.parametrize("work", [0, 1, 64**3, 512**3])
    def test_one_thread_at_most_the_bound(self, caller_counts, monkeypatch, work):
        # the works the old 512**3 bound pinned keep one thread: a scope, and
        # the factor of an n-point Gram matrix with n**3 = work
        seen = []

        def dpotrf(*args, **kwargs):
            seen.append(counts())
            return real(*args, **kwargs)

        real = kernels.dpotrf
        monkeypatch.setattr(kernels, "dpotrf", dpotrf)
        with blas_scope():
            assert counts() == [1] * len(caller_counts)
        assert counts() == caller_counts
        n = round(work ** (1 / 3))
        if n:
            GramMatrix(np.eye(n))
        assert seen == [[1] * len(caller_counts)] * (n > 0)
        assert counts() == caller_counts

    def test_restored_after_singular_gram(self, caller_counts):
        with pytest.raises(SingularGramError):
            GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert counts() == caller_counts

    def test_nested_scopes_restore(self, caller_counts):
        with blas_scope():
            with blas_scope():
                with blas_scope():
                    assert counts() == [1] * len(caller_counts)
                assert counts() == [1] * len(caller_counts)
            assert counts() == [1] * len(caller_counts)
        assert counts() == caller_counts

    def test_scopes_closed_out_of_order_restore(self, caller_counts):
        first, second = blas_scope(), blas_scope()
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
                with blas_scope():
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

    @pytest.mark.parametrize("n, caller", [(512, 1), (513, 2)])
    def test_factor_runs_on_the_policy_count(self, caller_counts, monkeypatch, n, caller):
        # one thread whatever the caller's count, and the caller's count after
        seen = []

        def dpotrf(*args, **kwargs):
            seen.append(counts())
            return real(*args, **kwargs)

        real = kernels.dpotrf
        monkeypatch.setattr(kernels, "dpotrf", dpotrf)
        for _, set_count in _blas._SETTERS:
            set_count(caller)
        gram(ExponentialKernel(1.0, 1.0), equispaced_interval_design(n, (0.0, 1.0)))
        assert seen == [[1] * len(caller_counts)]
        assert counts() == [caller] * len(caller_counts)

    def test_seeded_draw_runs_on_one_thread_above_the_bound(self, caller_counts, monkeypatch):
        # n = 1024 and 250 replicates put the draw's factor and product above
        # the old 512**3 bound; both run on one thread, as a plain gram does
        seen = []

        def dpotrf(*args, **kwargs):
            seen.append(("dpotrf", counts()))
            return real(*args, **kwargs)

        @contextmanager
        def product_scope():
            # the sampler's product is an operator, so its count is read inside its scope
            with blas_scope():
                seen.append(("product", counts()))
                yield

        real = kernels.dpotrf
        monkeypatch.setattr(kernels, "dpotrf", dpotrf)
        monkeypatch.setattr(sampler, "blas_scope", product_scope)
        n, m, one = 1024, 250, [1] * len(caller_counts)
        kernel, design = ExponentialKernel(1.0, 1.0), equispaced_interval_design(n, (0.0, 1.0))
        sample_paths(gram(kernel, design), m, 5)
        assert seen == [("dpotrf", one), ("product", one)]
        assert counts() == caller_counts
        seen.clear()
        gram(kernel, design)
        assert seen == [("dpotrf", one)]

    def test_every_call_runs_on_one_thread_at_n_1024(self, caller_counts, monkeypatch):
        # the factors, the dense trace's dtrsm and dtrtri, and dsygst, with
        # the caller at 2 threads
        seen = []

        def recording(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                seen.append((name, counts()))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        for module, name in [(kernels, "dpotrf"), (divergence, "dtrsm"), (divergence, "dtrtri"), (rkhs, "dsygst")]:
            recording(module, name)
        (k1, k2), one = schoenberg_pair(), [1] * len(caller_counts)
        designs = fibonacci_sphere_designs([512, 1024])
        j_divergence_trace(k1, k2, designs)
        g1, g2 = gram(k1, designs[-1]), gram(k2, designs[-1])
        tensor_norm_finite(g1, g2.entries - g1.entries)
        names = ["dpotrf", "dpotrf", "dtrsm", "dtrtri", "dpotrf", "dpotrf", "dsygst"]
        assert seen == [(name, one) for name in names]
        assert counts() == caller_counts

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

    @pytest.mark.blas_pin
    def test_dense_outputs_have_the_same_bits_on_one_thread_and_two(self, caller_counts):
        # the factors, the dense J trace and the tensor norm at n = 1024
        k1, k2 = schoenberg_pair()
        designs = fibonacci_sphere_designs([128, 256, 512, 1024])
        outputs = []
        for threads in (1, 2):
            for _, set_count in _blas._SETTERS:
                set_count(threads)
            g1, g2 = gram(k1, designs[-1]), gram(k2, designs[-1])
            trace = j_divergence_trace(k1, k2, designs)
            norm = tensor_norm_finite(g1, g2.entries - g1.entries)
            outputs.append([g1.chol.tobytes(), g2.chol.tobytes(), trace.values.tobytes(), norm])
            assert counts() == [threads] * len(caller_counts)
        assert outputs[0] == outputs[1]


def test_no_setters_is_a_no_op(monkeypatch):
    found = _blas._SETTERS
    before = counts(found)
    monkeypatch.setattr(_blas, "_SETTERS", ())
    with blas_scope():
        assert counts(found) == before
    assert counts(found) == before


def test_each_call_site_opens_one_scope(monkeypatch):
    # a factor, solve, inverse, dsygst or product of the library opens exactly
    # one scope, in the module that makes the call; half_solve opens none
    opened = []

    def recording(module):
        def scope():
            opened.append(module.__name__.rpartition(".")[2])
            return blas_scope()

        return scope

    for module in (kernels, divergence, rkhs, sampler):
        monkeypatch.setattr(module, "blas_scope", recording(module))
    n, m = 12, 5
    design = equispaced_interval_design(n, (0.0, 1.0))
    g1, g2 = gram(ExponentialKernel(1.0, 1.0), design), gram(ExponentialKernel(1.0, 2.0), design)
    assert opened == ["kernels", "kernels"]
    cases = [
        (lambda: g1.half_solve(np.ones(n)), []),
        (lambda: g1.half_solve(np.ones((n, 3))), []),
        (lambda: j_divergence(g1, g2), ["divergence"]),
        (lambda: tensor_norm_finite(g1, g2.entries - g1.entries), ["rkhs"]),
        (lambda: empirical_covariance(sample_paths(g1, m, 3)), ["sampler", "sampler"]),
    ]
    for call, expected in cases:
        opened.clear()
        call()
        assert opened == expected
    opened.clear()
    # the dense branch: two factors on the largest design, then its solve and inverse in one scope
    k = np.arange(20.0)
    k1 = SchoenbergKernel(SchoenbergSpectrum(3, (k + 1.0) ** -3))
    k2 = SchoenbergKernel(SchoenbergSpectrum(3, (k + 1.0) ** -2))
    j_divergence_trace(k1, k2, fibonacci_sphere_designs([4, 8]))
    assert opened == ["kernels", "kernels", "divergence"]
