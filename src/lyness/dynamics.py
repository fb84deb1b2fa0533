"""Orbit machinery for the recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1]).

Simulation runs in the original x-coordinates (float or exact rational),
while the invariant-function values attached to a trace are computed in the
transformed coordinates y = x/q where the candidate Lyapunov function g is
defined.  The module also monitors the one-or-two-step descent of g along
orbits, evaluates local stability of the fixed point, classifies parameter
points against the five previously-settled parameter regions, and emits
grids of g for inspection.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .model import ParamsPQ, equilibrium, invariant_value, to_alpha_A


@dataclass(frozen=True)
class OrbitTrace:
    """One simulated orbit.

    ``states`` holds (n, x[n-1], x[n]) triples (only the final one when
    recording is off); ``g_values`` holds the invariant function evaluated
    at the transformed pair (x[n-1]/q, x[n]/q), aligned with ``states``.
    ``iters_to_tol`` is the first n at which both components were within
    tolerance of the equilibrium, or None.
    """

    states: tuple[tuple[int, float, float], ...]
    g_values: tuple[float, ...]
    verdict: str
    iters_to_tol: int | None

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


def simulate(params: ParamsPQ,
             seed: tuple,
             mode: str = "float",
             tol: float = 1e-9,
             max_iters: int = 10**6,
             record_states: bool = True) -> OrbitTrace:
    """Iterate the recurrence from ``seed`` = (x[-1], x[0]).

    Stops with verdict "converged" once both of the two current components
    are within ``tol`` of the equilibrium, with "max-iters-exceeded" after
    ``max_iters`` steps, or with "diverged-nonfinite" if a float state stops
    being finite and positive (a numeric overflow signal; the exact
    recurrence preserves positivity, which exact mode asserts literally).
    """
    if mode == "exact-rational":
        mode = "exact"
    if mode not in ("float", "exact"):
        raise ValueError(f"mode must be 'float' or 'exact-rational', got {mode!r}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    x_prev, x_cur = seed
    if not (x_prev > 0 and x_cur > 0):
        raise ValueError("seed components must be positive")
    if mode == "exact":
        p, q = Fraction(params.p), Fraction(params.q)
        x_prev, x_cur = Fraction(x_prev), Fraction(x_cur)
    else:
        p, q = float(params.p), float(params.q)
        x_prev, x_cur = float(x_prev), float(x_cur)
    info = equilibrium(params)
    xbar, u = info.xbar, info.ybar
    alpha_tilde = u * u - u
    qf = float(params.q)

    states: list[tuple[int, float, float]] = []
    g_values: list[float] = []

    def g_of(a, b) -> float:
        ya, yb = float(a) / qf, float(b) / qf
        return invariant_value(alpha_tilde, ya, yb)

    def record(n, a, b):
        if record_states or n == 0:
            states.append((n, float(a), float(b)))
            g_values.append(g_of(a, b))
        elif states:
            states[-1] = (n, float(a), float(b))
            g_values[-1] = g_of(a, b)

    verdict = "max-iters-exceeded"
    iters_to_tol = None
    n = 0
    record(0, x_prev, x_cur)
    while True:
        if abs(float(x_prev) - xbar) < tol and abs(float(x_cur) - xbar) < tol:
            verdict = "converged"
            iters_to_tol = n
            break
        if n >= max_iters:
            break
        nxt = (p + q * x_cur) / (1 + x_prev)
        if mode == "float":
            if not math.isfinite(nxt) or nxt <= 0:
                verdict = "diverged-nonfinite"
                break
        else:
            assert nxt > 0, "exact iteration must stay positive"
        x_prev, x_cur = x_cur, nxt
        n += 1
        record(n, x_prev, x_cur)
    return OrbitTrace(tuple(states), tuple(g_values), verdict, iters_to_tol)


def trace_to_csv(trace: OrbitTrace, stream) -> None:
    """Write a trace as CSV with header n,x_prev,x_curr,g (17 significant digits)."""
    stream.write("n,x_prev,x_curr,g\n")
    for (n, xp, xc), g in zip(trace.states, trace.g_values):
        stream.write(f"{n},{xp:.17g},{xc:.17g},{g:.17g}\n")


def transformed_orbit(alpha, cap_a, seed: tuple, steps: int) -> list:
    """Iterate y[n+1] = (alpha + y[n]) / (cap_a + y[n-1]); returns [y[-1], y[0], ...].

    Arithmetic follows the argument types, so rational inputs give an exact
    orbit.  Simulating the original recurrence and this one from a seed
    divided by q gives orbits related by x[n] = q * y[n] exactly.
    """
    y_prev, y_cur = seed
    if not (y_prev > 0 and y_cur > 0):
        raise ValueError("seed components must be positive")
    out = [y_prev, y_cur]
    for _ in range(steps):
        y_prev, y_cur = y_cur, (alpha + y_cur) / (cap_a + y_prev)
        out.append(y_cur)
    return out


# -- Lyapunov descent --------------------------------------------------------------


@dataclass(frozen=True)
class DescentViolation:
    """First step at which min(g[n+1], g[n+2]) failed to drop below g[n]."""

    index: int
    g_n: float
    g_next: float
    g_next2: float


@dataclass(frozen=True)
class DescentResult:
    ok: bool
    violation: DescentViolation | None
    checked: int
    skipped_near_equilibrium: int


def lyapunov_descent_check(params: ParamsPQ,
                           seed: tuple,
                           steps: int,
                           eq_tol: float = 1e-9) -> DescentResult:
    """Check min(g[n+1], g[n+2]) < g[n] + 1e-12 along a float orbit.

    Requires q < p, the regime in which the transformed fixed point exceeds 1
    and g descends in at most two steps everywhere off the fixed point.
    States whose distance to the fixed point is within ``eq_tol`` relative to
    max(1, u) are skipped: at that distance a float orbit's position is
    dominated by rounding, so differences of g carry no information.  Checks
    are screened with float arithmetic and any step too close to call is
    re-evaluated exactly (the float states convert to rationals exactly, and
    g is a rational function), so a reported violation is a genuine property
    of the computed states, not of rounding.
    """
    if not params.q < params.p:
        raise ValueError("descent check requires q < p")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    info = equilibrium(params)
    u = info.ybar
    alpha_tilde = u * u - u
    qf = float(params.q)
    y = [float(seed[0]) / qf, float(seed[1]) / qf]
    alpha, cap_a = float(params.p) / qf**2, 1.0 / qf
    for _ in range(steps + 2):
        y.append((alpha + y[-1]) / (cap_a + y[-2]))
    g = [invariant_value(alpha_tilde, y[i], y[i + 1]) for i in range(len(y) - 1)]

    slack = Fraction(1, 10**12)
    skip_below = eq_tol * max(1.0, u)
    exact_cache: dict[int, Fraction] = {}

    def g_exact(i: int) -> Fraction:
        if i not in exact_cache:
            at = Fraction(u) * (Fraction(u) - 1)
            exact_cache[i] = invariant_value(at, Fraction(y[i]), Fraction(y[i + 1]))
        return exact_cache[i]

    checked = skipped = 0
    for n in range(len(g) - 2):
        if max(abs(y[n] - u), abs(y[n + 1] - u)) <= skip_below:
            skipped += 1
            continue
        checked += 1
        best = min(g[n + 1], g[n + 2])
        if best < g[n] - 1e-9 * max(1.0, abs(g[n])):
            continue
        if min(g_exact(n + 1), g_exact(n + 2)) < g_exact(n) + slack:
            continue
        return DescentResult(False,
                             DescentViolation(n, g[n], g[n + 1], g[n + 2]),
                             checked, skipped)
    return DescentResult(True, None, checked, skipped)


# -- local stability ---------------------------------------------------------------


@dataclass(frozen=True)
class StabilityInfo:
    spectral_radius: float
    stable: bool


def stability_from_ua(u: float, cap_a: float) -> StabilityInfo:
    """Spectral radius of the linearization at the fixed point u.

    The characteristic polynomial is z^2 - z/(A+u) + u/(A+u); complex roots
    have modulus sqrt(u/(A+u)), real ones are both positive with the larger
    equal to (b + sqrt(disc))/2 for b = 1/(A+u).
    """
    b = 1.0 / (cap_a + u)
    c = u / (cap_a + u)
    disc = b * b - 4.0 * c
    if disc < 0:
        radius = math.sqrt(c)
    else:
        radius = (b + math.sqrt(disc)) / 2.0
    return StabilityInfo(radius, radius < 1.0)


def local_stability(params: ParamsPQ) -> StabilityInfo:
    info = equilibrium(params)
    return stability_from_ua(info.ybar, 1.0 / float(params.q))


# -- parameter-region classification -------------------------------------------------


@dataclass(frozen=True)
class RegionCheck:
    """One region membership test: satisfied iff lhs <op> rhs, when applicable."""

    flag: str
    applicable: bool
    satisfied: bool
    lhs: float
    rhs: float
    description: str


@dataclass(frozen=True)
class RegionCoverage:
    flags: frozenset[str]
    checks: tuple[RegionCheck, ...]


def classify_regions(params: ParamsPQ) -> RegionCoverage:
    """Membership of (p, q) in the five previously-settled parameter regions.

    Regions (c) and (d) divide by q - 1 and are marked not applicable at
    q <= 1.  Region (e) is the set where 4 p (q-1)^2 <= 25: the showcase
    point (20, 4) must fall outside all five regions, and the region's
    boundary curve p = 25 / (4 (q-1)^2) reproduces the known crossover near
    p = 112 where it overtakes region (c).
    """
    p, q = float(params.p), float(params.q)
    xbar = equilibrium(params).xbar
    checks = [
        RegionCheck("a", True, q >= p, q, p, "q >= p"),
        RegionCheck("b", True, 2 * (q + 1) >= p, 2 * (q + 1), p, "2(q+1) >= p"),
    ]
    if q > 1:
        c_lhs = 2 * (q**3 - q**2 + q + math.sqrt(q**4 - 1) - 1) / (q - 1) ** 2
        checks.append(RegionCheck("c", True, c_lhs >= p, c_lhs, p,
                                  "2(q^3-q^2+q+sqrt(q^4-1)-1)/(q-1)^2 >= p"))
        d_rhs = (q * q + 1) / (q - 1)
        checks.append(RegionCheck("d", True, xbar <= d_rhs, xbar, d_rhs,
                                  "equilibrium <= (q^2+1)/(q-1)"))
    else:
        checks.append(RegionCheck("c", False, False, math.nan, p,
                                  "not applicable at q <= 1"))
        checks.append(RegionCheck("d", False, False, xbar, math.nan,
                                  "not applicable at q <= 1"))
    e_lhs = 4 * p * (q - 1) ** 2
    checks.append(RegionCheck("e", True, e_lhs <= 25, e_lhs, 25.0,
                              "4p(q-1)^2 <= 25"))
    flags = frozenset(c.flag for c in checks if c.applicable and c.satisfied)
    return RegionCoverage(flags, tuple(checks))


# -- invariant-surface grid ----------------------------------------------------------


def g_grid(alpha_tilde: float,
           window: tuple[float, float, float, float],
           resolution: int) -> list[tuple[float, float, float]]:
    """Tabulate g over an inclusive grid of ``resolution`` points per axis.

    ``window`` is (xmin, xmax, ymin, ymax) and must stay strictly positive
    since g blows up on the axes.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in window)
    if not (xmin > 0 and ymin > 0):
        raise ValueError("window must be strictly positive; g blows up on the axes")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("window must satisfy xmin < xmax and ymin < ymax")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not alpha_tilde > 0:
        raise ValueError("alpha_tilde must be positive")
    rows = []
    for i in range(resolution):
        x = xmin + (xmax - xmin) * i / (resolution - 1)
        for j in range(resolution):
            y = ymin + (ymax - ymin) * j / (resolution - 1)
            rows.append((x, y, invariant_value(alpha_tilde, x, y)))
    return rows


def grid_to_csv(rows: Iterable[tuple[float, float, float]], stream) -> None:
    """Write grid rows as CSV with header x,y,g (17 significant digits)."""
    stream.write("x,y,g\n")
    for x, y, g in rows:
        stream.write(f"{x:.17g},{y:.17g},{g:.17g}\n")


# -- batch sampling -----------------------------------------------------------------


def random_instances(rng, count: int, seeds_per_instance: int,
                     param_range: tuple[float, float] = (1e-2, 1e3),
                     seed_range: tuple[float, float] = (1e-2, 1e2),
                     ) -> list[tuple[ParamsPQ, tuple[float, float]]]:
    """Sample (p, q) pairs with q < p, log-uniform per component, plus seeds.

    Pairs violating q < p are rejected and redrawn, so the marginal law of
    the accepted components stays log-uniform on the ordered region.
    """
    lo, hi = (math.log(v) for v in param_range)
    slo, shi = (math.log(v) for v in seed_range)
    out = []
    for _ in range(count):
        while True:
            p = math.exp(rng.uniform(lo, hi))
            q = math.exp(rng.uniform(lo, hi))
            if q < p:
                break
        params = ParamsPQ(p, q)
        for _ in range(seeds_per_instance):
            seed = (math.exp(rng.uniform(slo, shi)), math.exp(rng.uniform(slo, shi)))
            out.append((params, seed))
    return out
