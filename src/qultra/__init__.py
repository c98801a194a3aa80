"""Numerics for bilateral q-ultraspherical functions and the q-series
machinery underneath them, with a verification suite covering generating
functions, recurrences, divided-difference actions, integral evaluations
and shifted orthogonality."""

from .errors import (ConfigError, DomainError, NonConvergence, PoleError,
                     QSeriesError, RegionError, SingularPoint)
from .qcore import (DEFAULT_POLICY, INFINITY, SpectralPoint, TruncationPolicy,
                    check_base, check_real_base, poch, poch_multi, poch_pm)
from .hyperseries import (BILATERAL, UNILATERAL, SeriesSpec, closed_form,
                          sum_phi, sum_psi, transform_residual)
from .ultraspherical import (UltraParams, UltraRange, UltraValue,
                             bilateral_cn, bilateral_cn_continued,
                             bilateral_cn_psi_form, bilateral_cn_range,
                             classical_cn, constant_term, generating_rhs,
                             linearization_residual, recurrence_gap,
                             recurrence_residual, special_value_c0,
                             special_value_cm1, symmetry_gap,
                             symmetry_params, symmetry_residual)
from .awoperator import DqResiduals, apply_dq, dq_action_residual
from .quadrature import (QuadratureResult, WeightParams,
                         bilateral_delta_integral, bilateral_delta_rhs,
                         integrate, kernel_integral, kernel_integral_rhs,
                         mass_points, orthogonality_diagonal,
                         orthogonality_entry, shifted_orthogonality_pair,
                         shifted_orthogonality_rhs, weight_value)
from .verify import VerificationEntry, VerificationReport, render_json, run_suite

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError", "NonConvergence", "PoleError",
    "QSeriesError", "RegionError", "SingularPoint",
    "DEFAULT_POLICY", "INFINITY", "SpectralPoint", "TruncationPolicy",
    "check_base", "check_real_base", "poch", "poch_multi", "poch_pm",
    "BILATERAL", "UNILATERAL", "SeriesSpec", "closed_form", "sum_phi",
    "sum_psi", "transform_residual",
    "UltraParams", "UltraRange", "UltraValue", "bilateral_cn",
    "bilateral_cn_continued", "bilateral_cn_psi_form",
    "bilateral_cn_range", "classical_cn",
    "constant_term", "generating_rhs", "linearization_residual",
    "recurrence_gap", "recurrence_residual", "special_value_c0",
    "special_value_cm1", "symmetry_gap", "symmetry_params",
    "symmetry_residual",
    "DqResiduals", "apply_dq", "dq_action_residual",
    "QuadratureResult", "WeightParams", "bilateral_delta_integral",
    "bilateral_delta_rhs", "integrate", "kernel_integral",
    "kernel_integral_rhs", "mass_points", "orthogonality_diagonal",
    "orthogonality_entry", "shifted_orthogonality_pair",
    "shifted_orthogonality_rhs", "weight_value",
    "VerificationEntry", "VerificationReport", "render_json", "run_suite",
    "__version__",
]
