"""Orbit machinery for the recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1]).

The recurrence is applied in one place, the generator ``_orbit``, in the
original x-coordinates (float or exact rational).  ``simulate`` walks it,
and ``descent_along`` checks the one-or-two-step descent of the Lyapunov
function g along a trace's states, computing g at y = x/q where it is
defined.  Both walks are the convergence sweep's inner loops, so they are
written tight: ``simulate`` builds a state tuple only when it records one,
and the descent core ``_descent`` keeps its three-state window in locals and
evaluates its float screen inline, the one place that formula is written.
``lyapunov_descent_check`` feeds ``_descent`` straight from ``_orbit``.  The
module also evaluates local stability of the fixed point, classifies
parameter points against the five previously-settled parameter regions,
emits grids of g for inspection, and samples parameter batches for
``sweep``, which runs convergence, descent and stability over a batch.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

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
    inf = math.inf
    exact = number is Fraction
    for n, (x_prev, x_cur) in enumerate(_orbit(p, q, seed)):
        if not 0 < x_cur < inf:
            verdict = "diverged-nonfinite"
            n -= 1  # the last state is the one before, still in a and b
            break
        if exact:
            a, b = float(x_prev), float(x_cur)
        else:
            a, b = x_prev, x_cur
        if record_states:
            states.append((n, a, b))
        if abs(a - xbar) < tol and abs(b - xbar) < tol:
            verdict = "converged"
            iters_to_tol = n
            break
        if n >= max_iters:
            break
    if not record_states:
        states.append((n, a, b))
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


#: c eps = 12 * 2**-53 in the float screen's error bound (see ``descent_along``).
_ROUNDOFF_BOUND = 12 * 2.0**-53

#: The float screen's margin: a float strictly below 1e-12, however the
#: literal 1e-12 rounds, so that a screened drop is a certified one.
_SCREEN_MARGIN = 1e-12 * (1 - 1e-9)


def descent_along(params: ParamsPQ,
                  states: Iterable[tuple[int, float, float]]) -> DescentResult:
    """Check min(g[n+1], g[n+2]) < g[n] + 1e-12 along an orbit's states.

    ``states`` are (n, x[n-1], x[n]) triples, as in ``OrbitTrace.states``;
    they are read once, in order, and every state but the last two is
    checked or skipped.  Each state must be positive and finite, also as
    y = x/q in floats; otherwise ValueError names its n.  Requires q < p,
    the regime in which the transformed fixed point u exceeds 1 and g
    descends in at most two steps everywhere off the fixed point.  States
    whose distance to the fixed point is within ``EQ_TOL`` relative to
    max(1, u) are skipped: at that distance a float orbit's position is
    dominated by rounding, so differences of g carry no information.

    Every value is compared as G = g - g(u, u), with u the float fixed point
    and alpha~ = u(u - 1) taken exactly, which moves no comparison.  With
    s = y[n-1] - u and t = y[n] - u the identity

        G = ((1+u)(s^2 + t^2 - st/u) + st(s+t)) / (y[n-1] y[n])

    holds exactly, and its quadratic part is positive definite for u >= 1,
    so G has a small relative error in floats even next to the fixed point,
    where g - g(u, u) formed from two values of g cancels.  The float screen
    encloses each state's G in [G - E, G + E], with

        E = c eps T / (y[n-1] y[n]),  T = (1+u)(s^2 + t^2 + |st|/u) + |st|(|s| + |t|),

    eps = 2**-53 and c = 12.  Evaluated as written, each term of G carries
    at most 10 roundings, so the float G is within gamma_10 T / (y[n-1] y[n])
    of the true one; E covers that error, the 11
    roundings of E itself and the one of G -/+ E once c >= 11 + O(eps), so
    c = 12.  An intermediate overflow gives an infinite or nan bound, and so
    a screen that decides nothing.  The count assumes no underflow: a
    nonzero s or t is at least 2**-53 in magnitude.

    The screen accepts a step when min(hi[n+1], hi[n+2]) < lo[n] + 1e-12
    (1 - 1e-9): every accepted step is then a certified drop.  Any step the
    screen cannot accept, every violation among them, is re-evaluated
    exactly: g is a rational function, so its value at the states' exact
    binary values is a ratio of integers, held as an unreduced (num, den)
    pair and compared by cross-multiplication.  A reported violation is
    therefore a genuine property of the given states, not of rounding; its
    g values are the floats ``invariant_value`` gives or, where that
    overflows, the exact values rounded once.
    """
    return _descent(params, ((n, (a, b)) for n, a, b in states))


def _descent(params: ParamsPQ,
             numbered: Iterable[tuple[int, tuple[float, float]]]) -> DescentResult:
    """``descent_along`` on (n, (x[n-1], x[n])) pairs, the shape
    ``zip(range(...), _orbit(...))`` yields.

    The three-state window lives in plain locals, oldest first: (n0, a0, b0)
    is the state a step is checked at, and lo/hi are the screen's bounds on
    each state's G.
    """
    if not params.q < params.p:
        raise ValueError("descent check requires q < p")
    info = equilibrium(params)
    u = info.ybar
    qf = float(params.q)
    skip_below = EQ_TOL * max(1.0, u)
    un, ud = u.as_integer_ratio()
    an, ad = un * (un - ud), ud * ud  # alpha~ = u(u - 1), exactly

    def g_exact(ya: float, yb: float) -> tuple[int, int]:
        """g at the exact (y[n-1], y[n]) as an unreduced (num, den > 0)."""
        xn, xd = ya.as_integer_ratio()
        yn, yd = yb.as_integer_ratio()
        num = (xd + xn) * (yd + yn) * (an * xd * yd + ad * (xn * yd + yn * xd))
        return num, ad * xd * yd * xn * yn

    inf = math.inf
    k = 1.0 + u
    bound, margin = _ROUNDOFF_BOUND, _SCREEN_MARGIN
    n1 = n2 = None
    a1 = b1 = lo1 = hi1 = a2 = b2 = lo2 = hi2 = 0.0
    checked = skipped = exact = 0
    for n, (x0, x1) in numbered:
        n0, a0, b0 = n1, a1, b1
        lo0 = lo1
        n1, a1, b1 = n2, a2, b2
        lo1, hi1 = lo2, hi2
        n2 = n
        a2 = ya = x0 / qf
        b2 = yb = x1 / qf
        if not (0 < ya < inf and 0 < yb < inf):
            raise ValueError(f"descent state n={n} must be positive and finite, "
                             f"also divided by q: got ({x0!r}, {x1!r})")
        s = ya - u
        t = yb - u
        st = s * t
        ss = s * s
        tt = t * t
        stu = st / u
        g = (k * (ss + tt - stu) + st * (s + t)) / ya / yb
        e = bound * ((k * (ss + tt + abs(stu)) + abs(st) * (abs(s) + abs(t))) / ya / yb)
        lo2, hi2 = g - e, g + e
        if n0 is None:
            continue
        if abs(a0 - u) <= skip_below and abs(b0 - u) <= skip_below:
            skipped += 1
            continue
        checked += 1
        bar = lo0 + margin
        if hi1 < bar or hi2 < bar:
            continue
        exact += 1
        g0 = g_exact(a0, b0)
        g1 = g_exact(a1, b1)
        if _drops(g1, g0):
            continue
        g2 = g_exact(a2, b2)
        if _drops(g2, g0):
            continue
        g = [_g_display(info.alpha_tilde, ya, yb, pair)
             for ya, yb, pair in ((a0, b0, g0), (a1, b1, g1), (a2, b2, g2))]
        return DescentResult(False, DescentViolation(n0, *g), checked, skipped, exact)
    return DescentResult(True, None, checked, skipped, exact)


def _g_display(alpha_tilde: float, ya: float, yb: float, pair: tuple[int, int]) -> float:
    """A violation's g value: ``invariant_value`` in floats, or, where that
    overflows, the exact pair's num / den rounded once (inf beyond the float
    range)."""
    g = invariant_value(alpha_tilde, ya, yb)
    if math.isfinite(g):
        return g
    try:
        return pair[0] / pair[1]
    except OverflowError:
        return math.inf


def lyapunov_descent_check(params: ParamsPQ, seed: tuple, steps: int) -> DescentResult:
    """``descent_along`` the first ``steps + 3`` states of the float orbit from
    ``seed``: the states ``simulate`` walks, so ``steps + 1`` steps are
    checked or skipped.  ``steps`` must be a nonnegative int."""
    if not (isinstance(steps, int) and not isinstance(steps, bool) and steps >= 0):
        raise ValueError("steps must be a nonnegative int")
    orbit = _orbit(float(params.p), float(params.q), (float(seed[0]), float(seed[1])))
    return _descent(params, zip(range(steps + 3), orbit))


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
    since g blows up on the axes.  A grid point or a value of g that
    overflows the float range is a ValueError.
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
            g = invariant_value(alpha_tilde, x, y)
            if not math.isfinite(g):  # also when x or y overflowed
                raise ValueError(f"g is not finite at x={x:.17g}, y={y:.17g}: "
                                 "narrow the window or lower alpha_tilde")
            rows.append((x, y, g))
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


# -- sweep --------------------------------------------------------------------------


#: Descent steps checked along an orbit that never reached the tolerance.
UNCONVERGED_DESCENT_STEPS = 500


@dataclass(frozen=True)
class SweepRecord:
    """One orbit of a sweep: its thin trace, the descent check over the steps
    the trace took, and the local stability of the fixed point."""

    params: ParamsPQ
    seed: tuple[float, float]
    trace: OrbitTrace
    descent: DescentResult
    stability: StabilityInfo

    @property
    def ok(self) -> bool:
        """The sweep's pass rule: the orbit converged and g descended."""
        return self.trace.converged and self.descent.ok


def sweep(batch: Iterable[tuple[ParamsPQ, tuple[float, float]]],
          tol: float, max_iters: int) -> tuple[SweepRecord, ...]:
    """Convergence, descent and stability for every (params, seed) of ``batch``.

    Each orbit is simulated to ``tol`` without recording states, then the
    descent monitor checks the same orbit for as many steps as it took
    (``UNCONVERGED_DESCENT_STEPS`` when it stopped short of ``tol``).
    """
    records = []
    for params, seed in batch:
        trace = simulate(params, seed, tol=tol, max_iters=max_iters, record_states=False)
        steps = trace.iters_to_tol
        if steps is None:
            steps = UNCONVERGED_DESCENT_STEPS
        records.append(SweepRecord(params, seed, trace,
                                   lyapunov_descent_check(params, seed, steps),
                                   local_stability(params)))
    return tuple(records)
