"""kustab: exact numerical K-theory and tilt stability checks.

The package verifies, entirely in exact arithmetic, the lattice-level side
of stability arguments on low-dimensional Fano varieties: Euler pairings
via Riemann-Roch, right orthogonals of exceptional collections, numerical
Serre actions and point-object classification, tilt charges and heart
membership, induced-stability checklists, and wall-and-chamber analysis
with no-wall certificates.
"""

from .exact import DomainError, QuadNumber, RatMatrix
from .semiorth import (ClassReport, Collection, FullnessVerdict,
                       classify_class, fullness_report,
                       is_numerically_exceptional, right_orthogonal,
                       serre_on_residual, sod_project)
from .tilt import (AlphaInterval, BlmsReport, Charge, ExtSlope, HeartVerdict,
                   TiltParams, alpha_range, blms_check, charge_h, charge_tilt,
                   heart_case, slope_h, slope_tilt)
from .variety import (PRESETS, SPINOR_CLASS, ChernVector, VarietyDesc,
                      euler_pairing, exp_twist, get_preset, gram_matrix,
                      in_lattice, line_bundle_class, serre_numeric)
from .walls import (BetaZero, NoWallCertificate, WallCircle, beta_zero,
                    nowall_certificate, wall_scan)

__version__ = "0.1.0"

__all__ = [
    "AlphaInterval", "BetaZero", "BlmsReport", "Charge", "ChernVector",
    "ClassReport", "Collection", "DomainError", "ExtSlope",
    "FullnessVerdict", "HeartVerdict", "NoWallCertificate", "PRESETS",
    "QuadNumber", "RatMatrix", "SPINOR_CLASS", "TiltParams", "VarietyDesc",
    "WallCircle", "alpha_range", "beta_zero", "blms_check", "charge_h",
    "charge_tilt", "classify_class", "euler_pairing", "exp_twist",
    "fullness_report", "get_preset", "gram_matrix", "heart_case",
    "in_lattice", "is_numerically_exceptional", "line_bundle_class",
    "nowall_certificate", "right_orthogonal", "serre_numeric",
    "serre_on_residual", "slope_h", "slope_tilt", "sod_project", "wall_scan",
]
