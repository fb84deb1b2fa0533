"""Orbit machinery for the recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1]).

The recurrence is applied in the original x-coordinates (float or exact
rational) in two places, pinned to the same states by a test: ``simulate``
steps it in its own loop, and the generator ``_orbit`` yields the
(n, x[n-1], x[n]) states that ``OrbitTrace.states`` holds, which feed
``lyapunov_descent_check``.  ``descent_along`` checks that the Lyapunov
function g drops strictly within one or two steps along such states (a
state repeated off the fixed point is a violation), computing g at the
view y = x/q.  An orbit is the run of states whose float view is positive
and finite: it ends at the first state that fails this test, which each
walk applies to the state it reads.  Both walks are the convergence
sweep's inner loops, so they are written tight: ``simulate`` resumes no
generator frame per state and builds a state tuple only when it records
one, and ``descent_along`` keeps its three-state window in locals, works
out each orbit value's view once for the two states that hold it,
evaluates its float screen inline, the one place that formula is written,
and leaves everything else to the steps that screen cannot accept.
The module also evaluates local stability of the fixed point, classifies
parameter points against the five previously-settled parameter regions,
emits grids of g for inspection, and samples parameter batches for
``sweep``, which runs convergence, descent and stability over a batch.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

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


def _orbit(p, q, seed: tuple, length: int):
    """Yield the first ``length`` states (n, x[n-1], x[n]) for n = 0, 1, ...,
    starting with ``seed``, in the shape ``OrbitTrace.states`` holds.

    Arithmetic follows the types of ``p``, ``q`` and ``seed``: floats give
    the float orbit, Fractions the exact one.  ``simulate`` applies the same
    recurrence in its own loop; a test pins the two to the same states.
    """
    x_prev, x_cur = seed
    for n in range(length):
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
    last state is the one before.  The seed's view is tested before the
    first step: ValueError naming n=0 unless it is positive and finite
    (OverflowError beyond the float range); past that check nothing raises.
    The loop applies the recurrence itself, as ``_orbit`` does, and tests
    each new state's view as it computes it.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    p, q, *seed = map(Fraction if exact else float, (params.p, params.q, seed[0], seed[1]))
    xbar = equilibrium(params).xbar
    inf = math.inf
    qf = float(params.q)
    a, b = map(float, seed)  # state 0 as floats; the loop carries them
    if not (0 < a / qf < inf and 0 < b / qf < inf):
        raise ValueError(f"state n=0 must be positive and finite, also "
                         f"divided by q in floats: got ({a!r}, {b!r})")

    states: list[tuple[int, float, float]] = []
    verdict = "max-iters-exceeded"
    x_prev, x_cur = seed
    n = 0
    while True:
        if record_states:
            states.append((n, a, b))
        if abs(a - xbar) < tol and abs(b - xbar) < tol:
            verdict = "converged"
            break
        if n >= max_iters:
            break
        x_prev, x_cur = x_cur, (p + q * x_cur) / (1 + x_prev)
        if exact:
            try:
                c = float(x_cur)
            except OverflowError:  # a state beyond the float range has no view
                c = inf
        else:
            c = x_cur
        if not 0 < c / qf < inf:
            verdict = "diverged-nonfinite"  # the last state is the one before
            break
        n += 1
        a, b = b, c
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


#: Distance to the fixed point u, relative to u, below which the monitor
#: skips a step its float screen cannot decide, rather than decide it exactly.
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
    """Verdict of ``descent_along``.  ``checked`` counts the steps decided,
    ``skipped_near_equilibrium`` the undecided ones: steps next to the fixed
    point that the float screen could not accept.  ``decided_exactly``
    counts the checked steps the float screen could not decide."""

    ok: bool  # violation is None; a field while bench/ calls replace(.., ok=False)
    violation: DescentViolation | None
    checked: int
    skipped_near_equilibrium: int
    decided_exactly: int


#: c eps = 12 * 2**-53 in the float screen's error bound away from the fixed
#: point, and c = 72 next to it (see ``descent_along``).
_ROUNDOFF_BOUND = 12 * 2.0**-53
_NEAR_ROUNDOFF_BOUND = 72 * 2.0**-53


def descent_along(params: ParamsPQ,
                  states: Iterable[tuple[int, float, float]]) -> DescentResult:
    """Check that g drops strictly, min(g[n+1], g[n+2]) < g[n], along an
    orbit's states.

    ``states`` are (n, x[n-1], x[n]) triples, as in ``OrbitTrace.states``;
    they are read once, in order, up to the first state whose view
    y = x/q is not positive and finite in floats, where the orbit ends and
    reading stops.  An x[n-1] equal to the state before's x[n], as along an
    orbit, reuses that value's view and offset: the same floats, computed
    once.  Every state of the orbit but the last two is a step, checked or
    skipped.  Requires q < p, the regime in which the transformed fixed
    point u exceeds 1 (``equilibrium`` gives a float u >= 1 there) and g
    drops strictly within two steps everywhere off the fixed point, so a
    state repeated off the fixed point is a violation.  A step the float
    screen below accepts is checked wherever it lies.  A step it cannot
    accept is skipped when its state lies within ``EQ_TOL`` relative to u
    of the fixed point: at that distance a float orbit's position
    is dominated by rounding, so its exact g's say nothing of the true
    orbit, and deciding them exactly would send every later step of an
    orbit settled there down the exact path.

    Every value is compared as G = g - g(u, u), with u the float fixed point
    and alpha~ = u(u - 1) taken exactly, which moves no comparison.  With
    s = y[n-1] - u, t = y[n] - u and k = 1 + u the identity

        G = N / (y[n-1] y[n]),  N = k(s^2 + t^2 - st/u) + st(s+t),

    holds exactly, and its quadratic part is positive definite for u >= 1,
    so G has a small relative error in floats even next to the fixed point,
    where g - g(u, u) formed from two values of g cancels.  The float screen
    encloses each state's G in [G - E, G + E].  Evaluated as written, each
    term of G carries at most 10 roundings, so the float G is within
    gamma_10 T / (y[n-1] y[n]) of the true one, where

        T = k(s^2 + t^2 + |st|/u) + |st|(|s| + |t|),

    eps = 2**-53 and gamma_10 = 10 eps / (1 - 10 eps).  Away from the fixed
    point E = c eps T / (y[n-1] y[n]) with c = 12: E covers that error, the
    11 roundings of E itself and the one of G -/+ E once c >= 11 + O(eps).

    Next to it, where |s| + |t| <= k/2 in floats, E = c eps G with c = 72.
    There, since |st| <= (s^2 + t^2)/2 and u >= 1,

        N >= (s^2 + t^2)(k - |s| - |t|)/2,  T <= (s^2 + t^2)(3k/2 + (|s| + |t|)/2),

    so T <= 7N, or T <= r N with r = (7 + eta)/(1 - eta) when the rounding
    of the branch test lets |s| + |t| reach (1 + eta) k/2, eta =
    (1 + eps)/(1 - eps)^2 - 1.  The float G is then within a G of the true
    one, a = gamma_10 r / (1 - gamma_10 r), and the roundings of c eps G and
    of G -/+ E are covered once c eps >= (a + eps)/(1 - eps)^2, a floor of
    71.0...eps; c = 72 also covers an underflow of st/u (at most 2**-967
    relative to N).  An intermediate overflow gives an infinite or nan
    bound, and so a screen that decides nothing.  The count assumes no
    other underflow: a nonzero s or t is at least 2**-53 in magnitude.

    The screen accepts a step when min(hi[n+1], hi[n+2]) < lo[n]: every
    accepted step is then a strict drop.  Only where the screen cannot
    accept does the loop ask whether the window holds a whole step and
    whether that step is skipped; any other such step, every violation
    among them, is decided exactly, by the same strict inequality on
    ``invariant_value`` at the states' exact binary values as ``Fraction``s,
    with the same exact alpha~, formed at the first such step, and each
    state's exact g evaluated once: a cache of the last three, keyed by a
    state's two coordinates.  A reported violation is therefore a genuine
    property of the given states, not of rounding; its g values are the
    floats ``invariant_value`` gives.  The loop counts the states it reads
    and the skipped steps, and the count of checked steps follows from
    those at the end.
    """
    if not params.q < params.p:
        raise ValueError("descent check requires q < p")
    info = equilibrium(params)
    u = info.ybar
    qf = float(params.q)
    skip_below = EQ_TOL * u
    inf = math.inf
    k = 1.0 + u
    half_k = 0.5 * k
    far_bound, near_bound = _ROUNDOFF_BOUND, _NEAR_ROUNDOFF_BOUND
    # The three-state window holds the raw states, oldest first: w0 is the
    # state a step is checked at.  lo/hi are the screen's bounds on each
    # state's G.  A value's view y, offset from u and magnitude are computed
    # where it is x[n] (yb, t, ta) and reused at the next state, where it
    # is x[n-1] (ya, s, sa), when that state's x[n-1] equals it.
    w1 = w2 = violation = g_exact = None
    lo1 = hi1 = lo2 = hi2 = 0.0
    x_last = yb = t = ta = math.nan
    m = -1  # the index of the state read last; after the loop, the count
    skipped = exact = 0  # undecided steps skipped; steps decided exactly
    for m, state in enumerate(states):
        _, x0, x1 = state
        if x0 == x_last:
            ya, s, sa = yb, t, ta
        else:
            ya = x0 / qf
            if not 0 < ya < inf:
                break  # the orbit ends at its first state without a view
            s = ya - u
            sa = abs(s)
        x_last = x1
        yb = x1 / qf
        if not 0 < yb < inf:
            break
        t = yb - u
        ta = abs(t)
        st = s * t
        sq = s * s + t * t
        stu = st / u
        g = (k * (sq - stu) + st * (s + t)) / ya / yb
        if sa + ta <= half_k:
            e = near_bound * g
        else:
            e = far_bound * ((k * (sq + abs(stu)) + sa * ta * (sa + ta)) / ya / yb)
        w0, w1, w2 = w1, w2, state
        lo0, lo1, lo2 = lo1, lo2, g - e
        hi1, hi2 = hi2, g + e
        if hi1 < lo0 or hi2 < lo0 or w0 is None:
            continue
        _, a, b = w0
        if abs(a / qf - u) <= skip_below and abs(b / qf - u) <= skip_below:
            skipped += 1
            continue
        exact += 1
        if g_exact is None:
            alpha = Fraction(u) * (Fraction(u) - 1)

            @functools.lru_cache(maxsize=3)  # keyed by coordinates: a state may be a list
            def g_exact(x_prev, x_cur):
                return invariant_value(alpha, Fraction(x_prev / qf), Fraction(x_cur / qf))

        g0 = g_exact(a, b)
        if g_exact(*w1[1:]) < g0 or g_exact(*w2[1:]) < g0:
            continue
        views = [(a / qf, b / qf) for _, a, b in (w0, w1, w2)]
        violation = DescentViolation(w0[0], *(invariant_value(info.alpha_tilde, ya, yb)
                                              for ya, yb in views))
        m += 1
        break
    else:
        m += 1
    # m counts the orbit's states read (a state without a view is not one),
    # and each but the last two is a step; fewer than three hold no step
    steps = m - 2 if m > 2 else 0
    return DescentResult(violation is None, violation, steps - skipped, skipped, exact)


def lyapunov_descent_check(params: ParamsPQ, seed: tuple, steps: int) -> DescentResult:
    """``descent_along`` the first ``steps + 3`` states of the float orbit from
    ``seed``, as ``_orbit`` yields them: the states ``simulate`` walks, so
    ``steps + 1`` steps are checked or skipped, fewer where the orbit ends
    at a state without a view.  ``steps`` must be a nonnegative int."""
    if not (isinstance(steps, int) and not isinstance(steps, bool) and steps >= 0):
        raise ValueError("steps must be a nonnegative int")
    return descent_along(params, _orbit(float(params.p), float(params.q),
                                        (float(seed[0]), float(seed[1])), steps + 3))


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
    """One region membership test.  ``satisfied`` is the verdict, decided
    exactly: True or False where the region's test applies, None where it
    does not (regions (c) and (d) at q <= 1).  ``lhs`` and ``rhs`` are the
    float views of the two sides, for display only."""

    flag: str
    satisfied: bool | None
    lhs: float
    rhs: float
    description: str


@dataclass(frozen=True)
class RegionCoverage:
    checks: tuple[RegionCheck, ...]

    @property
    def flags(self) -> frozenset[str]:
        return frozenset(c.flag for c in self.checks if c.satisfied)


def classify_regions(params: ParamsPQ) -> RegionCoverage:
    """Membership of (p, q) in the five previously-settled parameter regions.

    Every membership is decided in exact rational arithmetic on p and q as
    given; each check's lhs and rhs are float views, for display only.
    Regions (c) and (d) divide by q - 1: at q <= 1 they do not apply, and
    their verdict is None, though their descriptions keep their formulas.
    Region (e) is the set where 4 p (q-1)^2 <= 25: the showcase point
    (20, 4) must fall outside all five regions, and the region's boundary
    curve p = 25 / (4 (q-1)^2) reproduces the known crossover near p = 112
    where it overtakes region (c).  Raises ValueError when the equilibrium
    overflows the float range.  A view beyond the float range, as next to
    q = 1 or at huge p or q, is inf and the verdict stands.
    """
    pe, qe = Fraction(params.p), Fraction(params.q)
    p, q = float(pe), float(qe)
    d = float(qe - 1)  # exact first, so a q that rounds to 1.0 keeps d != 0
    xbar = equilibrium(params).xbar
    checks = [
        RegionCheck("a", qe >= pe, q, p, "q >= p"),
        RegionCheck("b", 2 * (qe + 1) >= pe, 2 * (q + 1), p, "2(q+1) >= p"),
    ]
    if qe > 1:
        # c_lhs >= p iff a + 2 sqrt(q^4 - 1) >= 0, a = 2(q^3-q^2+q-1) - p(q-1)^2;
        # the float view writes s = (q^2+1)/(q-1) = q + 1 + 2/d, so that
        # c_lhs = 2s + 2 sqrt((q+1)s)/d overflows only with c_lhs itself
        s = q + 1 + 2 / d if d else math.inf  # d is 0.0 only if q - 1 underflows
        c_lhs = 2 * s + 2 * math.sqrt(q + 1) * math.sqrt(s) / d if d else math.inf
        a = 2 * (qe**3 - qe**2 + qe - 1) - pe * (qe - 1) ** 2
        c_verdict = a >= 0 or a * a <= 4 * (qe**4 - 1)
        # xbar is the larger root of f(x) = x^2 - (q-1)x - p, and
        # R = (q^2+1)/(q-1) lies above the roots' midpoint (q-1)/2, so
        # xbar <= R iff f(R) >= 0
        r = (qe * qe + 1) / (qe - 1)
        d_verdict = r * r - (qe - 1) * r - pe >= 0
    else:
        c_verdict = d_verdict = None
        c_lhs = s = math.nan
    checks.append(RegionCheck("c", c_verdict, c_lhs, p,
                              "2(q^3-q^2+q+sqrt(q^4-1)-1)/(q-1)^2 >= p"))
    checks.append(RegionCheck("d", d_verdict, xbar, s, "equilibrium <= (q^2+1)/(q-1)"))
    # the view multiplies by 4 last, so that 4p cannot overflow before d*d
    checks.append(RegionCheck("e", 4 * pe * (qe - 1) ** 2 <= 25, p * d * d * 4, 25.0,
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
