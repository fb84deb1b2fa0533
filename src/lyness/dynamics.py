"""Orbit machinery for the recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1]).

The recurrence is applied in one place, the generator ``_orbit``, in the
original x-coordinates (float or exact rational); it yields the
(n, x[n-1], x[n]) states that ``OrbitTrace.states`` holds.  ``simulate``
walks it, and ``descent_along`` checks the one-or-two-step descent of the
Lyapunov function g along such states, computing g at the view y = x/q.
An orbit is the run of states whose float view is positive and finite: it
ends at the first state that fails this test, which each walk applies to
the state it reads.  Both walks are the convergence sweep's inner loops,
so they are written tight: ``simulate`` builds a state tuple only when it
records one, and ``descent_along`` keeps its three-state window in locals
and evaluates its float screen inline, the one place that formula is
written.  ``lyapunov_descent_check`` feeds ``descent_along`` straight from
``_orbit``.
The module also evaluates local stability of the fixed point, classifies
parameter points against the five previously-settled parameter regions,
emits grids of g for inspection, and samples parameter batches for
``sweep``, which runs convergence, descent and stability over a batch.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .model import ParamsPQ, equilibrium, invariant_value


@dataclass(frozen=True)
class OrbitTrace:
    """One simulated orbit.

    ``states`` holds (n, x[n-1], x[n]) triples as floats (only the final one
    when recording is off); `trace_to_csv` evaluates g along them.
    """

    states: tuple[tuple[int, float, float], ...]
    verdict: str

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"

    @property
    def iters_to_tol(self) -> int | None:
        """The first n within tolerance (the last state's), or None."""
        return self.states[-1][0] if self.verdict == "converged" else None


def _orbit(p, q, seed: tuple):
    """Yield the states (n, x[n-1], x[n]) for n = 0, 1, ..., starting with
    ``seed``, in the shape ``OrbitTrace.states`` holds.

    This is the one place the recurrence is applied.  Arithmetic follows the
    types of ``p``, ``q`` and ``seed``: floats give the float orbit, Fractions
    the exact one.  The generator never stops; callers decide when to.
    """
    x_prev, x_cur = seed
    for n in count():
        yield n, x_prev, x_cur
        x_prev, x_cur = x_cur, (p + q * x_cur) / (1 + x_prev)


def simulate(params: ParamsPQ,
             seed: tuple,
             exact: bool = False,
             tol: float = 1e-9,
             max_iters: int = 10**6,
             record_states: bool = True) -> OrbitTrace:
    """Iterate the recurrence from ``seed`` = (x[-1], x[0]), in exact rational
    arithmetic when ``exact`` is true and in floats otherwise.

    Stops with verdict "converged" once both of the two current components
    are within ``tol`` of the equilibrium, or with "max-iters-exceeded"
    after ``max_iters`` steps.  In either arithmetic the orbit ends with
    "diverged-nonfinite" at its first state whose float view y = x/q is not
    positive and finite (a state beyond the float range has none), and its
    last state is the one before.  The seed must be positive and finite
    once converted to the working type and to floats (ValueError;
    OverflowError beyond the float range), and its view is tested before
    the first step (ValueError naming n=0); past that check nothing raises.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    p, q, *seed = map(Fraction if exact else float, (params.p, params.q, seed[0], seed[1]))
    if not all(0 < float(x) < math.inf for x in seed):
        raise ValueError("seed components must be positive and finite")
    xbar = equilibrium(params).xbar
    inf = math.inf
    qf = float(params.q)
    if not all(0 < float(x) / qf < inf for x in seed):
        a, b = map(float, seed)
        raise ValueError(f"state n=0 must be positive and finite, also "
                         f"divided by q in floats: got ({a!r}, {b!r})")

    states: list[tuple[int, float, float]] = []
    verdict = "max-iters-exceeded"
    for n, x_prev, x_cur in _orbit(p, q, seed):
        # x_prev is the state before's x_cur (or the seed's), already tested
        if exact:
            try:
                x_prev, x_cur = float(x_prev), float(x_cur)
            except OverflowError:  # a state beyond the float range has no view
                x_cur = inf
        if 0 < x_cur / qf < inf:
            a, b = x_prev, x_cur
        else:
            verdict = "diverged-nonfinite"
            n -= 1  # the last state is the one before, still in a and b
            break
        if record_states:
            states.append((n, a, b))
        if abs(a - xbar) < tol and abs(b - xbar) < tol:
            verdict = "converged"
            break
        if n >= max_iters:
            break
    if not record_states:
        states.append((n, a, b))
    return OrbitTrace(tuple(states), verdict)


def trace_to_csv(params: ParamsPQ, trace: OrbitTrace, stream) -> None:
    """Write a trace of ``params`` as CSV with header n,x_prev,x_curr,g (17
    significant digits), g evaluated at the view (x[n-1]/q, x[n]/q)."""
    alpha_tilde = equilibrium(params).alpha_tilde
    qf = float(params.q)
    stream.write("n,x_prev,x_curr,g\n")
    for n, xp, xc in trace.states:
        g = invariant_value(alpha_tilde, xp / qf, xc / qf)
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

    ok: bool  # violation is None; a field while bench/ calls replace(.., ok=False)
    violation: DescentViolation | None
    checked: int
    skipped_near_equilibrium: int
    decided_exactly: int


def _drops(g_next: Fraction, g_cur: Fraction) -> bool:
    """Whether g_next < g_cur + 1e-12, exactly."""
    return g_next < g_cur + Fraction(1, 10**12)


#: c eps = 12 * 2**-53 in the float screen's error bound (see ``descent_along``).
_ROUNDOFF_BOUND = 12 * 2.0**-53

#: The float screen's margin: a float strictly below 1e-12, however the
#: literal 1e-12 rounds, so that a screened drop is a certified one.
_SCREEN_MARGIN = 1e-12 * (1 - 1e-9)


def descent_along(params: ParamsPQ,
                  states: Iterable[tuple[int, float, float]]) -> DescentResult:
    """Check min(g[n+1], g[n+2]) < g[n] + 1e-12 along an orbit's states.

    ``states`` are (n, x[n-1], x[n]) triples, as in ``OrbitTrace.states``;
    they are read once, in order, up to the first state whose view
    y = x/q is not positive and finite in floats, where the orbit ends and
    reading stops.  Every state of the orbit but the last two is checked
    or skipped.  Requires q < p, the regime in which the transformed fixed
    point u exceeds 1 and g descends in at most two steps everywhere off
    the fixed point.  States whose distance to the fixed point is within
    ``EQ_TOL`` relative to max(1, u) are skipped: at that distance a float
    orbit's position is dominated by rounding, so differences of g carry
    no information.

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
    exactly: ``invariant_value`` on the states' exact binary values as
    ``Fraction``s, with the same exact alpha~.  A reported violation is
    therefore a genuine property of the given states, not of rounding; its
    g values are the floats ``invariant_value`` gives.
    """
    if not params.q < params.p:
        raise ValueError("descent check requires q < p")
    info = equilibrium(params)
    u = info.ybar
    qf = float(params.q)
    skip_below = EQ_TOL * max(1.0, u)
    inf = math.inf
    k = 1.0 + u
    bound, margin = _ROUNDOFF_BOUND, _SCREEN_MARGIN
    # The three-state window lives in plain locals, oldest first: (n0, a0, b0)
    # is the state a step is checked at, and lo/hi are the screen's bounds on
    # each state's G.
    n1 = n2 = None
    a1 = b1 = lo1 = hi1 = a2 = b2 = lo2 = hi2 = 0.0
    checked = skipped = exact = 0
    for n, x0, x1 in states:
        n0, a0, b0 = n1, a1, b1
        lo0 = lo1
        n1, a1, b1 = n2, a2, b2
        lo1, hi1 = lo2, hi2
        n2 = n
        a2 = ya = x0 / qf
        b2 = yb = x1 / qf
        if not (0 < ya < inf and 0 < yb < inf):
            break  # the orbit ends at its first state without a view
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
        alpha = Fraction(u) * (Fraction(u) - 1)
        g0 = invariant_value(alpha, Fraction(a0), Fraction(b0))
        if _drops(invariant_value(alpha, Fraction(a1), Fraction(b1)), g0):
            continue
        if _drops(invariant_value(alpha, Fraction(a2), Fraction(b2)), g0):
            continue
        g = [invariant_value(info.alpha_tilde, ya, yb)
             for ya, yb in ((a0, b0), (a1, b1), (a2, b2))]
        return DescentResult(False, DescentViolation(n0, *g), checked, skipped, exact)
    return DescentResult(True, None, checked, skipped, exact)


def lyapunov_descent_check(params: ParamsPQ, seed: tuple, steps: int) -> DescentResult:
    """``descent_along`` the first ``steps + 3`` states of the float orbit from
    ``seed``: the states ``simulate`` walks, so ``steps + 1`` steps are
    checked or skipped, fewer where the orbit ends at a state without a
    view.  ``steps`` must be a nonnegative int."""
    if not (isinstance(steps, int) and not isinstance(steps, bool) and steps >= 0):
        raise ValueError("steps must be a nonnegative int")
    orbit = _orbit(float(params.p), float(params.q), (float(seed[0]), float(seed[1])))
    return descent_along(params, islice(orbit, steps + 3))


# -- local stability ---------------------------------------------------------------


@dataclass(frozen=True)
class StabilityInfo:
    spectral_radius: float


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
    return StabilityInfo(radius)


def local_stability(params: ParamsPQ) -> StabilityInfo:
    return stability_from_ua(equilibrium(params).ybar, 1.0 / float(params.q))


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
    checks: tuple[RegionCheck, ...]

    @property
    def flags(self) -> frozenset[str]:
        return frozenset(c.flag for c in self.checks if c.applicable and c.satisfied)


def classify_regions(params: ParamsPQ) -> RegionCoverage:
    """Membership of (p, q) in the five previously-settled parameter regions.

    Every membership is decided in exact rational arithmetic on p and q as
    given; each check's lhs and rhs are float views, for display only.
    Regions (c) and (d) divide by q - 1 and are marked not applicable at
    q <= 1.  Region (e) is the set where 4 p (q-1)^2 <= 25: the showcase
    point (20, 4) must fall outside all five regions, and the region's
    boundary curve p = 25 / (4 (q-1)^2) reproduces the known crossover near
    p = 112 where it overtakes region (c).  Raises ValueError when the
    equilibrium overflows the float range.  A view beyond the float range,
    as next to q = 1 or at huge p or q, is inf and the verdict stands.
    """
    pe, qe = Fraction(params.p), Fraction(params.q)
    p, q = float(pe), float(qe)
    d = float(qe - 1)  # exact first, so a q that rounds to 1.0 keeps d != 0
    xbar = equilibrium(params).xbar
    checks = [
        RegionCheck("a", True, qe >= pe, q, p, "q >= p"),
        RegionCheck("b", True, 2 * (qe + 1) >= pe, 2 * (q + 1), p, "2(q+1) >= p"),
    ]
    if qe > 1:
        # c_lhs >= p iff a + 2 sqrt(q^4 - 1) >= 0, a = 2(q^3-q^2+q-1) - p(q-1)^2;
        # the float view writes s = (q^2+1)/(q-1) = q + 1 + 2/d, so that
        # c_lhs = 2s + 2 sqrt((q+1)s)/d overflows only with c_lhs itself
        s = q + 1 + 2 / d if d else math.inf  # d is 0.0 only if q - 1 underflows
        c_lhs = 2 * s + 2 * math.sqrt(q + 1) * math.sqrt(s) / d if d else math.inf
        a = 2 * (qe**3 - qe**2 + qe - 1) - pe * (qe - 1) ** 2
        checks.append(RegionCheck("c", True, a >= 0 or a * a <= 4 * (qe**4 - 1), c_lhs, p,
                                  "2(q^3-q^2+q+sqrt(q^4-1)-1)/(q-1)^2 >= p"))
        # xbar is the larger root of f(x) = x^2 - (q-1)x - p, and
        # R = (q^2+1)/(q-1) lies above the roots' midpoint (q-1)/2, so
        # xbar <= R iff f(R) >= 0
        r = (qe * qe + 1) / (qe - 1)
        checks.append(RegionCheck("d", True, r * r - (qe - 1) * r - pe >= 0,
                                  xbar, s, "equilibrium <= (q^2+1)/(q-1)"))
    else:
        checks.append(RegionCheck("c", False, False, math.nan, p,
                                  "not applicable at q <= 1"))
        checks.append(RegionCheck("d", False, False, xbar, math.nan,
                                  "not applicable at q <= 1"))
    # the view multiplies by 4 last, so that 4p cannot overflow before d*d
    checks.append(RegionCheck("e", True, 4 * pe * (qe - 1) ** 2 <= 25, p * d * d * 4, 25.0,
                              "4p(q-1)^2 <= 25"))
    return RegionCoverage(tuple(checks))


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


#: The log-uniform sampling ranges of ``random_instances``.
_PARAM_RANGE = (1e-2, 1e3)
_SEED_RANGE = (1e-2, 1e2)


def random_instances(rng, count: int,
                     seeds_per_instance: int) -> list[tuple[ParamsPQ, tuple[float, float]]]:
    """Sample (p, q) pairs with q < p, log-uniform per component on
    [1e-2, 1e3], plus ``seeds_per_instance`` seeds each, log-uniform per
    component on [1e-2, 1e2].

    Pairs violating q < p are rejected and redrawn, so the marginal law of
    the accepted components stays log-uniform on the ordered region.
    """
    lo, hi = (math.log(v) for v in _PARAM_RANGE)
    slo, shi = (math.log(v) for v in _SEED_RANGE)
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
    (``UNCONVERGED_DESCENT_STEPS`` when it stopped short of ``tol``).  Both
    walks end the orbit at its first state whose view y = x/q is not
    positive and finite ("diverged-nonfinite").
    """
    records = []
    for params, seed in batch:
        trace = simulate(params, seed, tol=tol, max_iters=max_iters, record_states=False)
        steps = trace.iters_to_tol if trace.converged else UNCONVERGED_DESCENT_STEPS
        descent = lyapunov_descent_check(params, seed, steps)
        records.append(SweepRecord(params, seed, trace, descent, local_stability(params)))
    return tuple(records)
