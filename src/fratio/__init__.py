"""Tools built around the l1/l2 coefficient-ratio complexity measure on
finite abelian groups: orthonormal transform systems, soft sparsification,
l1-minimization recovery from random samples, localization checks, a
rate-distortion descriptor codec, and a sampling estimator with covering and
dimension bounds."""

__version__ = "0.2.0"

from .groups import CoefficientVector, FiniteAbelianGroup, Signal
from .localization import LocalizationReport, ProductDecomposition, localization_check, slice_signal
from .ratio import SparsifyResult, fourier_ratio, harmonic_model, soft_sparsify, sorted_decay_check
from .recovery import (
    RecoveryConfig,
    RecoveryResult,
    SampleSet,
    bernoulli_sample,
    erasure_row_statistics,
    project_fidelity,
    recover_l1,
    recover_l1_batch,
    sample_complexity,
    soft_threshold,
)
from .codec import BitAccount, Descriptor, rd_bit_bound, rd_bit_bound_gabor, rd_decode, rd_encode
from .sqdim import (
    CoveringParams,
    RandomFunctional,
    covering_params,
    pointwise_variance,
    quantize_functional,
    quantizer_deviation_bound,
    sq_dim_log2,
    sq_mse,
    sq_sample,
)
from .systems import (
    BoundednessCheck,
    OrthonormalSystem,
    check_boundedness,
    make_dft,
    make_gabor_block,
    make_haar,
    make_wht,
    parse_system,
)

__all__ = [
    "BitAccount",
    "BoundednessCheck",
    "CoefficientVector",
    "CoveringParams",
    "Descriptor",
    "FiniteAbelianGroup",
    "LocalizationReport",
    "OrthonormalSystem",
    "ProductDecomposition",
    "RandomFunctional",
    "RecoveryConfig",
    "RecoveryResult",
    "SampleSet",
    "Signal",
    "SparsifyResult",
    "bernoulli_sample",
    "check_boundedness",
    "covering_params",
    "erasure_row_statistics",
    "fourier_ratio",
    "harmonic_model",
    "localization_check",
    "make_dft",
    "make_gabor_block",
    "make_haar",
    "make_wht",
    "parse_system",
    "pointwise_variance",
    "project_fidelity",
    "quantize_functional",
    "quantizer_deviation_bound",
    "rd_bit_bound",
    "rd_bit_bound_gabor",
    "rd_decode",
    "rd_encode",
    "recover_l1",
    "recover_l1_batch",
    "sample_complexity",
    "slice_signal",
    "soft_sparsify",
    "soft_threshold",
    "sorted_decay_check",
    "sq_dim_log2",
    "sq_mse",
    "sq_sample",
]
