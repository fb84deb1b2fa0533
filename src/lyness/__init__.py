"""Exact-arithmetic certificates and orbit tooling for the planar recurrence
x[n+1] = (p + q*x[n]) / (1 + x[n-1]) with positive parameters and seeds.

The package builds the recurrence's invariant-function model symbolically
(`model`), replays the positivity certificates that establish one-or-two-step
Lyapunov descent (`certifier`), and provides numeric/exact orbit machinery,
stability checks, and parameter-region classification (`dynamics`), all on a
small sparse polynomial engine over the integers (`exactalg`), whose
rational functions are quotients of integer polynomials and whose public
coefficient accessors return `fractions.Fraction`.

The exports are lazy.  ``import lyness`` loads no submodule: `_EXPORTS` maps
each public name to the submodule that defines it, and the module
``__getattr__`` (PEP 562) imports that submodule the first time the name is
asked for, as in ``lyness.Poly`` or ``from lyness import simulate``.
``__all__`` lists the same names, so ``from lyness import *`` loads every
submodule.  A cold ``lyness certify`` thus compiles only the modules it
runs, and never `dynamics`.
"""
import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in (
    ("exactalg", ("Monomial", "Poly", "RationalFn", "grlex_key", "mono_text",
                  "substitute")),
    ("model", ("EquilibriumInfo", "ParamsPQ", "SymbolicModel", "build_symbolic_model",
               "equilibrium", "eval_delta", "invariant_value",
               "lyness_invariance_check", "lyness_orbit", "lyness_step")),
    ("certifier", ("CertificateReport", "CertificateSummary", "SubstitutionStep",
                   "certify_q1", "certify_q2q4", "certify_q3", "certify_segments",
                   "landmark_counts", "map_to_plane", "run_full_certificate",
                   "summary_to_dict", "summary_to_json", "summary_to_text",
                   "verify_delta1_identity")),
    ("dynamics", ("DescentResult", "DescentViolation", "OrbitTrace", "RegionCheck",
                  "RegionCoverage", "StabilityInfo", "SweepRecord", "classify_regions",
                  "descent_along", "g_grid", "grid_to_csv", "lyapunov_descent_check",
                  "local_stability", "random_instances", "simulate",
                  "stability_from_ua", "sweep", "trace_to_csv")),
) for name in names}

__all__ = list(_EXPORTS)

_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
