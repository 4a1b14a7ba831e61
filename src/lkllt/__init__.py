"""Lattice probability metrics, smoothing functionals and rate experiments."""

from .errors import (
    DegenerateChain,
    InvalidDistribution,
    InvalidParameter,
    LklltError,
    NumericalFailure,
    TooLarge,
)
from .lattice import (
    LatticeDist,
    SignedSeq,
    convolve,
    difference,
    dist_from_weights,
    seq_norm,
    smooth_uniform,
    span_difference,
)
from .metrics import (
    KOLMOGOROV,
    LOCAL,
    Metric,
    TOTAL_VARIATION,
    WASSERSTEIN,
    distance,
    local_span,
    smoothing_term,
    smoothing_term_dual,
)

__version__ = "0.1.0"
