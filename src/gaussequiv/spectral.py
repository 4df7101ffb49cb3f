"""Spectral equivalence criteria for stationary Gaussian distributions.

One series decides equivalence: the dimension-weighted atom sum
``sum_n d(a_n) (1 - m1(a_n)/m2(a_n))^2`` over a purely atomic spectrum.
With all dimensions equal to one it is the classical criterion on locally
compact abelian groups; on the sphere the atoms are the degrees k, with
weights ``h(k)`` and mass ratios ``a1(k)/a2(k)`` of the Schoenberg
coefficients, which gives ``sum_k h(k) (1 - a1(k)/a2(k))^2``.

Partial sums alone never prove convergence, so verdicts are only issued when
either the stored lists are the entire (finitely supported) spectrum, or a
closed-form ratio model supplies an analytic tail bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv
from .errors import AtomMismatchError, ContractError
from .kernels import SchoenbergSpectrum, _array, _integer, _json_object, _number, harmonic_dimensions

__all__ = [
    "Verdict",
    "CriterionResult",
    "AtomicSpectralMeasure",
    "RatioModel",
    "PowerLawRatio",
    "ConstantRatio",
    "sphere_equivalence_sum",
    "chow_sum",
    "spectra_from_ratio_model",
    "atomic_measure_from_spectrum",
    "criterion_to_csv",
]


class Verdict(enum.Enum):
    FINITE = "Finite"
    DIVERGENT = "Divergent"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class CriterionResult:
    """Partial sums of a criterion series plus its convergence verdict.

    ``indices`` holds the term indices (degrees k for the sphere sum, 1-based
    atom ordinals for atomic measures).  ``tail_bound`` is an analytic upper
    bound on the omitted tail when one is available, else None.
    """

    indices: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
    final: float
    verdict: Verdict
    tail_bound: float | None


@dataclass(frozen=True, eq=False)
class AtomicSpectralMeasure:
    """Purely atomic spectral measure: string labels, numeric masses and dimensions, none coerced."""

    labels: tuple[str, ...]
    masses: np.ndarray
    dims: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not all(issubclass(t, str) for t in set(map(type, self.labels))):
            raise ContractError("atom labels must be JSON strings")
        masses = _array(self.masses, "mass", (len(self.labels),))
        whole = _array(self.dims, "dim", (len(self.labels),))
        # the checked entries as given, so an integer past 2**53 is compared and kept exactly
        dims = np.asarray(self.dims, dtype=object)
        if len(set(self.labels)) != len(self.labels):
            raise ContractError("atom labels must be unique")
        if not np.all((masses > 0) & (masses < math.inf)):
            raise ContractError("atom masses must be finite and strictly positive")
        integral = np.all((whole >= 1) & (whole <= 2.0**63) & (whole == np.floor(whole)))
        if not (integral and np.all(dims < 2**63)):  # the exact bound sees finite numbers only
            raise ContractError("atom dimensions must be integers in [1, 2**63)")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "dims", dims.astype(np.int64))

    def __len__(self) -> int:
        return len(self.labels)

    @staticmethod
    def from_json(obj: dict) -> "AtomicSpectralMeasure":
        """Load ``{"atoms": [{"label": ..., "mass": ..., "dim": ...}, ...]}``; a missing key is a ContractError."""
        atoms = _json_object(obj, "measure description", "atoms")["atoms"]
        if not isinstance(atoms, list) or not all(
            isinstance(a, dict) and "label" in a and "mass" in a and "dim" in a for a in atoms
        ):
            raise ContractError("atoms must be a list of JSON objects with 'label', 'mass' and 'dim' keys")
        return AtomicSpectralMeasure(
            labels=[a["label"] for a in atoms],
            masses=[a["mass"] for a in atoms],
            dims=[a["dim"] for a in atoms],
        )

    def to_json(self) -> dict:
        return {
            "atoms": [
                {"label": l, "mass": float(m), "dim": int(d)}
                for l, m, d in zip(self.labels, self.masses, self.dims)
            ]
        }


# ---------------------------------------------------------------------------
# closed-form tail models
# ---------------------------------------------------------------------------


class RatioModel:
    """Closed-form model of the coefficient ratio a1(k)/a2(k) for all k.

    Subclasses that understand their own tails override :meth:`tail`; the
    base class declines to judge, yielding Inconclusive verdicts.
    """

    def ratio(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tail(self, power: float, scale: float, last: int) -> tuple[Verdict, float | None]:
        """Verdict and upper bound for ``sum_{j>last} w_j (1 - ratio(j))^2``
        given weights ``w_j <= scale (j+1)^power``."""
        return Verdict.INCONCLUSIVE, None


@dataclass(frozen=True)
class PowerLawRatio(RatioModel):
    """Ratio model ``a1(k)/a2(k) = 1 + c (k+1)^(-s)``.

    The squared deviation is ``c^2 (k+1)^(-2s)``.  With weights growing like
    ``(k+1)^p`` the series converges iff ``2s > p + 1``, which the integral
    test turns into an explicit tail bound.  Harmonic dimensions on S^{d-1}
    satisfy ``h(k) <= 2 (k+1)^(d-2)`` (and are bounded below by a positive
    multiple of the same power), so p = d - 2 on the sphere.
    """

    c: float
    s: float

    def __post_init__(self):
        for name in ("c", "s"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not (-1.0 < self.c < math.inf and math.isfinite(self.s)):
            raise ContractError("power ratio needs finite s and finite c > -1 (positive coefficients)")

    def ratio(self, k: np.ndarray) -> np.ndarray:
        k = _number(k, "k", array=True)
        return 1.0 + self.c * (k + 1.0) ** (-self.s)

    def tail(self, power: float, scale: float, last: int) -> tuple[Verdict, float | None]:
        if self.c == 0.0:
            return Verdict.FINITE, 0.0
        if 2.0 * self.s <= power + 1.0:
            return Verdict.DIVERGENT, None
        expo = power - 2.0 * self.s
        bound = scale * self.c**2 * (last + 1.0) ** (expo + 1.0) / (-expo - 1.0)
        return Verdict.FINITE, float(bound)


@dataclass(frozen=True)
class ConstantRatio(RatioModel):
    """Constant ratio ``a1(k)/a2(k) = alpha``: finite only in the trivial case."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha"))
        if not 0.0 < self.alpha < math.inf:
            raise ContractError("constant ratio must be finite and strictly positive")

    def ratio(self, k: np.ndarray) -> np.ndarray:
        return np.full(np.shape(k), self.alpha, dtype=float)

    def tail(self, power: float, scale: float, last: int) -> tuple[Verdict, float | None]:
        if self.alpha == 1.0:
            return Verdict.FINITE, 0.0
        return Verdict.DIVERGENT, None


def ratio_model_from_json(obj: dict) -> RatioModel:
    """Build a tail model from ``{"type": "power", "c": ..., "s": ...}`` or
    ``{"type": "constant", "alpha": ...}``; a missing key raises :class:`ContractError` (:func:`_json_object`)."""
    obj = _json_object(obj, "ratio model", "type")
    if obj["type"] == "power":
        return PowerLawRatio(c=obj["c"], s=obj["s"])
    if obj["type"] == "constant":
        return ConstantRatio(alpha=obj["alpha"])
    raise ContractError(f"unknown ratio model type {obj['type']!r}")


def spectra_from_ratio_model(
    model: RatioModel, sphere_dim: int, last_k: int
) -> tuple[SchoenbergSpectrum, SchoenbergSpectrum]:
    """Spectra (a1, a2) with a2 = 1 and a1 = ratio(k), for degrees 0..K = ``last_k``."""
    last_k = _integer(last_k, "K", 0)
    ks = np.arange(last_k + 1)
    a2 = np.ones(last_k + 1)
    return SchoenbergSpectrum(sphere_dim, model.ratio(ks)), SchoenbergSpectrum(sphere_dim, a2)


# ---------------------------------------------------------------------------
# criterion sums
# ---------------------------------------------------------------------------


def _criterion(indices, weights, num, den, tail_model, power, scale) -> CriterionResult:
    """Partial sums of ``sum_j w_j (1 - num_j/den_j)^2``, a term with ``den_j = 0`` being 0.

    Without a tail model the terms are the whole series; with one the
    verdict and bound come from ``tail_model.tail(power, scale, indices[-1])``.
    """
    ratio = np.divide(num, den, out=np.ones_like(num), where=den > 0)
    terms = weights * (1.0 - ratio) ** 2
    partial = np.cumsum(terms)
    if tail_model is None:
        verdict, tail = Verdict.FINITE, 0.0
    else:
        verdict, tail = tail_model.tail(power, scale, int(indices[-1]))
    return CriterionResult(indices, terms, partial, float(partial[-1]), verdict, tail)


def sphere_equivalence_sum(
    s1: SchoenbergSpectrum,
    s2: SchoenbergSpectrum,
    last_k: int,
    tail_model: RatioModel | None = None,
) -> CriterionResult:
    """Weighted criterion sum ``sum_{k<=K} h(k) (1 - a1(k)/a2(k))^2``, K = ``last_k``.

    Degrees absent from both spectra contribute zero; a degree present in
    exactly one raises :class:`AtomMismatchError`, since distinct supports
    already settle the dichotomy on the orthogonal side.  Without a tail
    model the stored lists are taken to be the whole spectra, so the sum is
    finite by construction; with a model the verdict and tail bound come
    from the model's tail with ``h(k) <= 2 (k+1)^(d-2)``.
    """
    if s1.sphere_dim != s2.sphere_dim:
        raise ContractError("spectra must share the sphere dimension")
    last_k = _integer(last_k, "K", 0)
    a1, a2 = (np.pad(s.coeffs[: last_k + 1], (0, max(0, last_k + 1 - len(s.coeffs)))) for s in (s1, s2))
    only_one = (a1 > 0) != (a2 > 0)
    if np.any(only_one):
        k_bad = int(np.argmax(only_one))
        raise AtomMismatchError(
            f"spectra have different supports at degree {k_bad}; "
            "the distributions are orthogonal"
        )
    h = harmonic_dimensions(s1.sphere_dim, last_k)
    return _criterion(np.arange(last_k + 1), h, a1, a2, tail_model, s1.sphere_dim - 2.0, 2.0)


def chow_sum(
    m1: AtomicSpectralMeasure,
    m2: AtomicSpectralMeasure,
    n_atoms: int,
    tail_model: RatioModel | None = None,
    tail_weight_bound: float | None = None,
) -> CriterionResult:
    """Dimension-weighted atom sum ``sum_{n<=N} d(a_n) (1 - m1/m2)^2``, N = ``n_atoms``.

    The first ``n_atoms`` atoms of both measures must align label by label;
    any mismatch raises :class:`AtomMismatchError`.  With every dimension
    equal to one this reduces to the unweighted criterion for stationary
    processes on locally compact abelian groups.  A tail model bounds the
    dimensions beyond ``n_atoms`` by ``tail_weight_bound`` (finite, >= 1;
    default the largest dimension summed).
    """
    n_atoms = _integer(n_atoms, "N", 1)
    if len(m1) < n_atoms or len(m2) < n_atoms:
        raise ContractError("both measures must list at least N atoms")
    for i in range(n_atoms):
        if m1.labels[i] != m2.labels[i]:
            raise AtomMismatchError(
                f"atom {i} differs: {m1.labels[i]!r} vs {m2.labels[i]!r}; "
                "the distributions are orthogonal"
            )
    dims = m1.dims[:n_atoms]
    if np.any(dims != m2.dims[:n_atoms]):
        raise ContractError("aligned atoms must carry equal dimensions")
    bound = _number(np.max(dims) if tail_weight_bound is None else tail_weight_bound, "tail_weight_bound")
    if not 1.0 <= bound < math.inf:
        raise ContractError("tail weight bound must be finite and >= 1")
    return _criterion(
        np.arange(1, n_atoms + 1), dims, m1.masses[:n_atoms], m2.masses[:n_atoms], tail_model, 0.0, bound
    )


def atomic_measure_from_spectrum(spectrum: SchoenbergSpectrum) -> AtomicSpectralMeasure:
    """Atomic measure induced by a spectrum: one atom per positive degree.

    Degree k maps to label ``"k<k>"``, dimension h(k) and mass a(k) h(k), the
    bookkeeping under which the sphere criterion is the atom criterion.
    """
    mask = spectrum.coeffs > 0
    ks = np.nonzero(mask)[0]
    if len(ks) == 0:
        raise ContractError("spectrum has no positive coefficients")
    h = spectrum.harmonic_dims[ks]
    return AtomicSpectralMeasure(
        labels=tuple(f"k{k}" for k in ks),
        masses=spectrum.coeffs[ks] * h,
        dims=h,
    )


def criterion_to_csv(result: CriterionResult, path, index_name: str = "n") -> None:
    """Write the terms and partial sums with header ``<index_name>,term,partial_sum``."""
    write_csv(path, [index_name, "term", "partial_sum"], (result.indices, result.terms, result.partial_sums))
