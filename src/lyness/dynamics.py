"""Orbit machinery for the recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1]).

The recurrence is applied in one place, the generator ``_orbit``, in the
original x-coordinates (float or exact rational).  ``simulate`` walks it,
and ``descent_along`` checks the one-or-two-step descent of the Lyapunov
function g along a trace's states, computing g at y = x/q where it is
defined.  The module also evaluates local stability of the fixed point,
classifies parameter points against the five previously-settled parameter
regions, and emits grids of g for inspection.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .model import ParamsPQ, equilibrium, invariant_value


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


def _orbit(p, q, seed: tuple):
    """Yield (x[n-1], x[n]) for n = 0, 1, ..., starting with ``seed``.

    This is the one place the recurrence is applied.  Arithmetic follows the
    types of ``p``, ``q`` and ``seed``: floats give the float orbit, Fractions
    the exact one.  The generator never stops; callers decide when to.
    """
    x_prev, x_cur = seed
    while True:
        yield x_prev, x_cur
        x_prev, x_cur = x_cur, (p + q * x_cur) / (1 + x_prev)


def simulate(params: ParamsPQ,
             seed: tuple,
             mode: str = "float",
             tol: float = 1e-9,
             max_iters: int = 10**6,
             record_states: bool = True) -> OrbitTrace:
    """Iterate the recurrence from ``seed`` = (x[-1], x[0]).

    Stops with verdict "converged" once both of the two current components
    are within ``tol`` of the equilibrium, with "max-iters-exceeded" after
    ``max_iters`` steps, or with "diverged-nonfinite" if a state stops being
    finite and positive (a float overflow signal; the exact recurrence
    preserves positivity, so exact mode never reports it).  The seed must be
    positive and finite once converted to the working type and to the float
    view the trace records, so a rational seed that rounds to 0.0 is
    rejected with ValueError, and one beyond the float range raises
    OverflowError.
    """
    if mode == "exact-rational":
        mode = "exact"
    if mode not in ("float", "exact"):
        raise ValueError(f"mode must be 'float' or 'exact-rational', got {mode!r}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    number = Fraction if mode == "exact" else float
    p, q = number(params.p), number(params.q)
    seed = number(seed[0]), number(seed[1])
    if not all(0 < float(x) < math.inf for x in seed):
        raise ValueError("seed components must be positive and finite")
    info = equilibrium(params)
    xbar = info.xbar

    states: list[tuple[int, float, float]] = []
    verdict = "max-iters-exceeded"
    iters_to_tol = None
    for n, (x_prev, x_cur) in enumerate(_orbit(p, q, seed)):
        if not 0 < x_cur < math.inf:
            verdict = "diverged-nonfinite"
            break
        state = (n, float(x_prev), float(x_cur))
        if record_states:
            states.append(state)
        if abs(state[1] - xbar) < tol and abs(state[2] - xbar) < tol:
            verdict = "converged"
            iters_to_tol = n
            break
        if n >= max_iters:
            break
    if not record_states:
        states.append(state)
    qf = float(params.q)
    g_values = tuple(invariant_value(info.alpha_tilde, a / qf, b / qf)
                     for _, a, b in states)
    return OrbitTrace(tuple(states), g_values, verdict, iters_to_tol)


def trace_to_csv(trace: OrbitTrace, stream) -> None:
    """Write a trace as CSV with header n,x_prev,x_curr,g (17 significant digits)."""
    stream.write("n,x_prev,x_curr,g\n")
    for (n, xp, xc), g in zip(trace.states, trace.g_values):
        stream.write(f"{n},{xp:.17g},{xc:.17g},{g:.17g}\n")


# -- Lyapunov descent --------------------------------------------------------------


#: Relative distance to the fixed point below which the monitor skips a state.
EQ_TOL = 1e-9


@dataclass(frozen=True)
class DescentViolation:
    """First step at which min(g[n+1], g[n+2]) failed to drop below g[n]."""

    index: int
    g_n: float
    g_next: float
    g_next2: float


@dataclass(frozen=True)
class DescentResult:
    """Verdict of ``descent_along``.  ``checked`` counts the steps tested,
    ``skipped_near_equilibrium`` those skipped next to the fixed point, and
    ``decided_exactly`` the checked steps the float screen could not decide."""

    ok: bool
    violation: DescentViolation | None
    checked: int
    skipped_near_equilibrium: int
    decided_exactly: int


def _drops(g_next: tuple[int, int], g_cur: tuple[int, int]) -> bool:
    """Whether g_next < g_cur + 1e-12, for exact (num, den > 0) pairs."""
    n, d = g_next
    n0, d0 = g_cur
    return n * d0 * 10**12 < (n0 * 10**12 + d0) * d


def descent_along(params: ParamsPQ,
                  states: Iterable[tuple[int, float, float]]) -> DescentResult:
    """Check min(g[n+1], g[n+2]) < g[n] + 1e-12 along an orbit's states.

    ``states`` are (n, x[n-1], x[n]) triples, as in ``OrbitTrace.states``;
    they are read once, in order, and every state but the last two is
    checked or skipped.  Requires q < p, the regime in which the transformed
    fixed point exceeds 1 and g descends in at most two steps everywhere off
    the fixed point.  States whose distance to the fixed point is within
    ``EQ_TOL`` relative to max(1, u) are skipped: at that distance a float
    orbit's position is dominated by rounding, so differences of g carry no
    information.  Checks are screened with float arithmetic and any step too
    close to call is re-evaluated exactly: g is a rational function, so its
    value at the states' exact binary values is a ratio of integers, held as
    an unreduced (num, den) pair and compared by cross-multiplication.  A
    reported violation is therefore a genuine property of the given states,
    not of rounding.
    """
    if not params.q < params.p:
        raise ValueError("descent check requires q < p")
    info = equilibrium(params)
    u, alpha_tilde = info.ybar, info.alpha_tilde
    qf = float(params.q)
    skip_below = EQ_TOL * max(1.0, u)
    un, ud = u.as_integer_ratio()
    an, ad = un * (un - ud), ud * ud  # alpha~ = u(u - 1), exactly

    def g_exact(entry: list) -> tuple[int, int]:
        """g at the entry's exact (y[n-1], y[n]) as an unreduced (num, den > 0)."""
        if entry[4] is None:
            xn, xd = entry[1].as_integer_ratio()
            yn, yd = entry[2].as_integer_ratio()
            num = (xd + xn) * (yd + yn) * (an * xd * yd + ad * (xn * yd + yn * xd))
            entry[4] = num, ad * xd * yd * xn * yn
        return entry[4]

    # the last three states, oldest first, as [n, y[n-1], y[n], g, exact pair or None]
    window: list[list] = []
    checked = skipped = exact = 0
    for n, a, b in states:
        ya, yb = a / qf, b / qf
        window.append([n, ya, yb, invariant_value(alpha_tilde, ya, yb), None])
        del window[:-3]
        if len(window) < 3:
            continue
        cur, nxt, nxt2 = window
        if max(abs(cur[1] - u), abs(cur[2] - u)) <= skip_below:
            skipped += 1
            continue
        checked += 1
        if min(nxt[3], nxt2[3]) < cur[3] - 1e-9 * max(1.0, abs(cur[3])):
            continue
        exact += 1
        g_cur = g_exact(cur)
        if _drops(g_exact(nxt), g_cur) or _drops(g_exact(nxt2), g_cur):
            continue
        return DescentResult(False, DescentViolation(cur[0], cur[3], nxt[3], nxt2[3]),
                             checked, skipped, exact)
    return DescentResult(True, None, checked, skipped, exact)


def lyapunov_descent_check(params: ParamsPQ, seed: tuple, steps: int) -> DescentResult:
    """``descent_along`` the first ``steps + 3`` states of the float orbit from
    ``seed``: the states ``simulate`` walks, so ``steps + 1`` steps are
    checked or skipped."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    orbit = _orbit(float(params.p), float(params.q), (float(seed[0]), float(seed[1])))
    states = ((n, a, b) for n, (a, b) in enumerate(islice(orbit, steps + 3)))
    return descent_along(params, states)


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
    if not all(math.isfinite(v) for v in (xmin, xmax, ymin, ymax)):
        raise ValueError("window components must be finite")
    if not (xmin > 0 and ymin > 0):
        raise ValueError("window must be strictly positive; g blows up on the axes")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("window must satisfy xmin < xmax and ymin < ymax")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not (alpha_tilde > 0 and math.isfinite(alpha_tilde)):
        raise ValueError("alpha_tilde must be positive and finite")
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
