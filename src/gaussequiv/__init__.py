"""Equivalence vs. orthogonality diagnostics for centered Gaussian processes.

The library decides and diagnoses whether two centered Gaussian process
distributions are equivalent or orthogonal through three complementary
routes: finite-design divergence traces, reproducing-kernel Hilbert space
norms, and spectral criterion sums on spheres and atomic spectra.  A
maximum-likelihood module runs the covariance-parameter experiments that
illustrate the estimation consequences of the dichotomy.
"""

__version__ = "0.1.0"

from .errors import (
    AtomMismatchError,
    ContractError,
    OptimizationFailedError,
    SingularGramError,
)
from .kernels import (
    BrownianKernel,
    CovarianceKernel,
    Design,
    ExponentialKernel,
    Geometry,
    GramMatrix,
    SchoenbergKernel,
    SchoenbergSpectrum,
    eval_kernel,
    gegenbauer_normalized,
    gram,
    gram_from_matrix,
    harmonic_dimension,
    harmonic_dimensions,
    kernel_from_json,
    kernel_to_json,
)
from .designs import (
    dyadic_interval_designs,
    dyadic_interval_points,
    equispaced_interval_design,
    fibonacci_sphere_designs,
    is_prefix_nested,
    sphere_sequence,
)
from .rkhs import (
    FiniteFunction,
    reproducing_check,
    rkhs_inner,
    rkhs_norm,
    tensor_norm_finite,
)
from .divergence import (
    DichotomyVerdict,
    DivergenceTrace,
    VerdictLabel,
    dichotomy_diagnostic,
    gaussian_logpdf,
    j_divergence,
    j_divergence_trace,
    trace_to_csv,
    trace_to_json,
)
from .spectral import (
    AtomicSpectralMeasure,
    ConstantRatio,
    CriterionResult,
    PowerLawRatio,
    RatioModel,
    Verdict,
    atomic_measure_from_spectrum,
    check_shared_atoms,
    chow_sum,
    criterion_to_csv,
    spectra_from_ratio_model,
    sphere_equivalence_sum,
)
from .sampler import (
    SampleBatch,
    batch_to_csv,
    derive_seed,
    empirical_covariance,
    sample_paths,
)
from .mle import (
    ConsistencyReport,
    ExperimentConfig,
    LikelihoodProblem,
    MLEResult,
    OptimizerConfig,
    ParamSpace,
    fit_mle,
    microergodic_experiment,
    neg_log_likelihood,
    report_to_csv,
)
