"""Property tests for the paper's invariants and the library's exactness contracts."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussequiv import (
    AtomicSpectralMeasure,
    BrownianKernel,
    Design,
    ExponentialKernel,
    LikelihoodProblem,
    SchoenbergKernel,
    SchoenbergSpectrum,
    chow_sum,
    equispaced_interval_design,
    eval_kernel,
    fibonacci_sphere_designs,
    gaussian_logpdf,
    gram,
    gegenbauer_normalized,
    j_divergence,
    j_divergence_trace,
    neg_log_likelihood,
    sphere_equivalence_sum,
    tensor_norm_finite,
)

SETTINGS = settings(max_examples=25, deadline=None)

# J is a sum of n nonnegative eigenvalue terms lambda + 1/lambda - 2, formed
# from traces of size about n + J; on these well-separated designs roundoff
# stays below J_RTOL * (n + J)
J_RTOL = 1e-9

positive = st.floats(0.2, 5.0)

# sigma and beta log-uniform over the box of the ML experiment
box_param = st.floats(np.log(0.05), np.log(20.0)).map(np.exp)

# tensor norms on well-conditioned sphere Grams (condition number a few
# hundred at most) carry roundoff far below this
TENSOR_RTOL = 1e-9

# the Markov and dense likelihoods sum the same terms in different orders;
# on these designs the dense Cholesky loses at most a few 1e-12 relative
MARKOV_RTOL = 1e-10


@st.composite
def interval_coords(draw, min_size=1, max_size=12):
    """Distinct points of [0, 4] at least 0.05 apart, in drawn order."""
    grid = draw(st.lists(st.integers(0, 80), min_size=min_size, max_size=max_size, unique=True))
    return 0.05 * np.array(grid, dtype=float)


@st.composite
def sphere_coords(draw, d=3, min_size=1, max_size=10):
    raw = draw(
        st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
            min_size=min_size,
            max_size=max_size,
        )
    )
    v = np.array(raw)
    v = v[np.linalg.norm(v, axis=1) > 0.1]
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return np.unique(v, axis=0)


@st.composite
def kernels_and_coords(draw):
    kind = draw(st.sampled_from(["brownian", "exponential", "schoenberg"]))
    if kind == "schoenberg":
        coeffs = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
        return SchoenbergKernel(SchoenbergSpectrum(3, np.array(coeffs))), draw(sphere_coords().filter(len))
    t = draw(interval_coords())[:, None]
    if kind == "brownian":
        return BrownianKernel(draw(positive)), t
    return ExponentialKernel(draw(positive), draw(positive)), t


@SETTINGS
@given(kernels_and_coords(), st.data())
def test_eval_kernel_is_matrix_entry(kernel_coords, data):
    kernel, coords = kernel_coords
    i = data.draw(st.integers(0, len(coords) - 1))
    j = data.draw(st.integers(0, len(coords) - 1))
    value = eval_kernel(kernel, coords[i], coords[j])
    assert value == kernel.matrix(coords)[i, j]


@SETTINGS
@given(st.sampled_from([3, 4, 7]), st.data())
def test_schoenberg_matrix_is_gegenbauer_sum(d, data):
    coords = data.draw(sphere_coords(d=d).filter(len))
    coeffs = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=40)))
    spectrum = SchoenbergSpectrum(d, coeffs)
    dots = np.clip((coords[:, None, :] * coords[None, :, :]).sum(axis=-1), -1.0, 1.0)
    expected = 0.0
    for k, (a, h) in enumerate(zip(coeffs, spectrum.harmonic_dims)):
        expected = expected + a * h * gegenbauer_normalized(k, d, dots)
    assert SchoenbergKernel(spectrum).matrix(coords).tobytes() == expected.tobytes()


@SETTINGS
@given(st.one_of(interval_coords().map(Design.interval), sphere_coords().filter(len).map(Design.on_sphere)), st.data())
def test_design_json_roundtrip_and_prefix(design, data):
    again = Design.from_json(json.loads(json.dumps(design.to_json())))
    assert again.geometry == design.geometry
    assert again.coords.dtype == design.coords.dtype
    assert again.coords.tobytes() == design.coords.tobytes()
    m = data.draw(st.integers(1, len(design)))
    assert design.prefix(m).is_prefix_of(design)


@SETTINGS
@given(interval_coords(min_size=2), positive, positive, positive, positive)
def test_j_divergence_symmetric_nonnegative_monotone(t, s1, b1, s2, b2):
    k1, k2 = ExponentialKernel(s1, b1), ExponentialKernel(s2, b2)
    design = Design.interval(t)
    values = []
    for m in range(1, len(design) + 1):
        d = design.prefix(m)
        g1, g2 = gram(k1, d), gram(k2, d)
        j = j_divergence(g1, g2)
        assert j == j_divergence(g2, g1)
        assert j >= -J_RTOL * m
        values.append(j)
    for m, (a, b) in enumerate(zip(values, values[1:]), start=2):
        assert b >= a - J_RTOL * (m + b)
    trace = j_divergence_trace(k1, k2, [design.prefix(m) for m in range(1, len(design) + 1)])
    for m, (got, j) in enumerate(zip(trace.values, values), start=1):
        want = max(0.0, j)
        assert abs(got - want) <= J_RTOL * (m + want)


@st.composite
def markov_kernels(draw):
    """A Brownian or exponential kernel with parameters from the ML box."""
    if draw(st.booleans()):
        return BrownianKernel(draw(box_param))
    return ExponentialKernel(draw(box_param), draw(box_param))


@SETTINGS
@given(markov_kernels(), markov_kernels(), interval_coords(min_size=2).map(lambda t: t + 0.05), st.data())
def test_markov_trace_matches_dense_oracle(k1, k2, t, data):
    # points > 0 in drawn, unsorted order: each prefix re-sorts its points
    design = Design.interval(t)
    sizes = data.draw(st.lists(st.integers(1, len(t)), min_size=1, max_size=len(t), unique=True).map(sorted))
    designs = [design.prefix(m) for m in sizes]
    trace = j_divergence_trace(k1, k2, designs)
    for m, got, d in zip(sizes, trace.values, designs):
        want = j_divergence(gram(k1, d), gram(k2, d))
        assert abs(got - want) <= J_RTOL * (m + abs(want))
    assert list(j_divergence_trace(k1, k1, designs).values) == [0.0] * len(sizes)


@SETTINGS
@given(st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)), min_size=1, max_size=30))
def test_chow_sum_unit_dimensions_is_grenander_form(masses):
    m1 = np.array([a for a, _ in masses])
    m2 = np.array([b for _, b in masses])
    labels = tuple(f"a{i}" for i in range(len(masses)))
    ones = np.ones(len(masses), dtype=int)
    result = chow_sum(
        AtomicSpectralMeasure(labels, m1, ones), AtomicSpectralMeasure(labels, m2, ones), len(masses)
    )
    assert result.final == pytest.approx(float(np.sum((1.0 - m1 / m2) ** 2)), rel=1e-12, abs=1e-300)


@SETTINGS
@given(st.integers(1, 300), markov_kernels(), st.integers(0, 2**32 - 1))
def test_markov_likelihood_matches_dense_oracle(n, kernel, seed):
    # points > 0, so that the Brownian covariance is nonsingular
    rng = np.random.default_rng(seed)
    t = equispaced_interval_design(n).coords[:, 0] + 0.05
    y = rng.standard_normal(n)
    perm = rng.permutation(n)
    shuffled = Design.interval(t[perm])
    family = lambda theta: type(kernel)(*map(float, theta))
    theta = dataclasses.astuple(kernel)
    value = neg_log_likelihood(LikelihoodProblem(family, shuffled, y[perm]), theta)
    dense = -gaussian_logpdf(gram(kernel, shuffled), y[perm])
    assert abs(value - dense) <= MARKOV_RTOL * max(1.0, abs(dense))
    ordered = LikelihoodProblem(family, Design.interval(t), y)
    assert neg_log_likelihood(ordered, theta) == value


@SETTINGS
@given(st.integers(1, 6), st.data())
def test_tensor_norms_monotone_and_bounded_by_sphere_sum(last_k, data):
    coeffs = st.lists(st.floats(0.5, 2.0), min_size=last_k + 1, max_size=last_k + 1)
    base = np.array(data.draw(coeffs))
    other = base * np.array(data.draw(coeffs))
    # a degree-K spectrum on S^2 spans (K+1)^2 harmonics; half that many points
    # keep the Gram matrix well conditioned
    sizes = data.draw(st.lists(st.integers(1, (last_k + 1) ** 2 // 2), min_size=1, max_size=4, unique=True))
    s_base, s_other = SchoenbergSpectrum(3, base), SchoenbergSpectrum(3, other)
    bound = sphere_equivalence_sum(s_other, s_base, last_k).final
    k_base, k_other = SchoenbergKernel(s_base), SchoenbergKernel(s_other)
    norms = []
    for design in fibonacci_sphere_designs(sorted(sizes)):
        g = gram(k_base, design)
        norms.append(tensor_norm_finite(g, gram(k_other, design).entries - g.entries))
    for a, b in zip(norms, norms[1:]):
        assert b >= a - TENSOR_RTOL * (1.0 + a)
    assert norms[-1] <= bound + TENSOR_RTOL * (1.0 + bound)
