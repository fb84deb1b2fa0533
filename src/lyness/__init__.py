"""Exact-arithmetic certificates and orbit tooling for the planar recurrence
x[n+1] = (p + q*x[n]) / (1 + x[n-1]) with positive parameters and seeds.

The package builds the recurrence's invariant-function model symbolically
(`model`), replays the positivity certificates that establish one-or-two-step
Lyapunov descent (`certifier`), and provides numeric/exact orbit machinery,
stability checks, and parameter-region classification (`dynamics`), all on a
small sparse polynomial engine over exact rationals (`exactalg`), which
computes on Python ints and returns `fractions.Fraction` only at its public
coefficient accessors.
"""
from .exactalg import (
    Monomial,
    Poly,
    RationalFn,
    grlex_key,
    mono_text,
    parse_poly,
    substitute,
)
from .model import (
    EquilibriumInfo,
    ParamsAlphaA,
    ParamsPQ,
    QuadValue,
    SymbolicModel,
    alpha_of_u,
    build_symbolic_model,
    equilibrium,
    equilibrium_exact,
    equilibrium_residual,
    eval_delta,
    from_alpha_A,
    invariant_value,
    lyness_equilibrium,
    lyness_invariance_check,
    lyness_orbit,
    lyness_step,
    to_alpha_A,
)
from .certifier import (
    CertificateReport,
    CertificateSummary,
    SubstitutionStep,
    certify_q1,
    certify_q2q4,
    certify_q3,
    certify_segments,
    landmark_counts,
    map_to_plane,
    run_full_certificate,
    summary_to_dict,
    summary_to_json,
    summary_to_text,
    verify_delta1_identity,
)
from .dynamics import (
    DescentResult,
    DescentViolation,
    OrbitTrace,
    RegionCheck,
    RegionCoverage,
    StabilityInfo,
    classify_regions,
    descent_along,
    g_grid,
    grid_to_csv,
    lyapunov_descent_check,
    local_stability,
    random_instances,
    simulate,
    stability_from_ua,
    trace_to_csv,
)

__version__ = "0.1.0"
