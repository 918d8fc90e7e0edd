"""kustab: exact numerical K-theory and tilt stability checks.

The package verifies, entirely in exact arithmetic, the lattice-level side
of stability arguments on low-dimensional Fano varieties: Euler pairings
via Riemann-Roch, right orthogonals of exceptional collections, numerical
Serre actions and point-object classification, tilt charges and heart
membership, induced-stability checklists, and wall-and-chamber analysis
with no-wall certificates.

Importing the package loads no submodule: an exported name resolves on
first access to the current attribute of its home module.
"""

import importlib

__version__ = "0.1.0"

# exported name -> home module
_HOMES = {name: module for module, names in (
    ("exact", ("DomainError", "QuadNumber", "RatMatrix")),
    ("semiorth", ("ClassReport", "Collection", "FullnessVerdict",
                  "classify_class", "fullness_report",
                  "is_numerically_exceptional", "right_orthogonal",
                  "serre_on_residual", "sod_project")),
    ("tilt", ("AlphaInterval", "BlmsReport", "Charge", "ExtSlope",
              "HeartVerdict", "TiltParams", "alpha_range", "blms_check",
              "charge_h", "charge_tilt", "heart_case", "slope_h",
              "slope_tilt")),
    ("variety", ("PRESETS", "SPINOR_CLASS", "ChernVector", "VarietyDesc",
                 "euler_pairing", "exp_twist", "get_preset", "gram_matrix",
                 "line_bundle_class", "serre_numeric")),
    ("walls", ("BetaZero", "NoWallCertificate", "WallCircle", "beta_zero",
               "nowall_certificate", "wall_scan")),
) for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    # not cached in the package globals: a name patched on its home module
    # reads patched here too, and reads the original once it is restored
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
