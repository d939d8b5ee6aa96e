"""Bayesian spatial econometrics with sparse GMRFs and grid-based Laplace inference."""

from .engine import (
    FitResult,
    GridSettings,
    HyperGrid,
    laplace_inner,
    log_conditional_evidence,
    marginal_likelihood,
)
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NumericFailureError,
    SpateconError,
)
from .gmrf import (
    CholeskyHandle,
    JointPrecision,
    SlmSpec,
    joint_precision,
    rho_to_external,
    rho_to_internal,
)
from .marginals import Marginal, gaussian_mixture_marginal, transform_marginal
from .models import KINDS, ModelPriors, ModelSpec, build, fit
from .weights import (
    WeightsMatrix,
    from_dense,
    knn_adjacency,
    lag_covariates,
    row_standardize,
)

__all__ = [
    "CholeskyHandle",
    "FitResult",
    "GridSettings",
    "HyperGrid",
    "InvalidInputError",
    "InvalidParameterError",
    "JointPrecision",
    "KINDS",
    "Marginal",
    "ModelPriors",
    "ModelSpec",
    "NumericFailureError",
    "SlmSpec",
    "SpateconError",
    "WeightsMatrix",
    "build",
    "fit",
    "from_dense",
    "gaussian_mixture_marginal",
    "joint_precision",
    "knn_adjacency",
    "lag_covariates",
    "laplace_inner",
    "log_conditional_evidence",
    "marginal_likelihood",
    "rho_to_external",
    "rho_to_internal",
    "row_standardize",
    "transform_marginal",
]

__version__ = "0.1.0"
