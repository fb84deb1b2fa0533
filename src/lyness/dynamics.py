"""Orbit machinery for the recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1]).

The recurrence is applied in the original x-coordinates (float or exact
rational) in two loops, pinned to the same states by tests: ``simulate``
walks an orbit in either arithmetic and records the (n, x[n-1], x[n])
states that ``OrbitTrace.states`` holds, and ``lyapunov_descent_check``
walks the float orbit and checks it as it goes.  ``descent_along`` checks
that the Lyapunov function g drops strictly within one or two steps along
given states (a state repeated off the fixed point is a violation),
computing g at the view y = x/q.  An orbit is the run of states whose float
view is positive and finite: it ends at the first state that fails this
test, which each loop applies to the state it reads.  ``simulate`` and
``lyapunov_descent_check`` are the convergence sweep's inner loops, so they
are written tight: neither resumes a generator frame per state,
``simulate`` builds a state tuple only when it records one, and both work
out each orbit value's view once.  CPython 3.11 takes its specialised
float instructions only when both operands are floats, so the loops write
``1.0`` and ``0.0``, never ``1`` and ``0``, and ``simulate`` converts its
1 together with p and q.  ``descent_along``, which only ``lyness
simulate`` and the tests run, computes each given state's views afresh.
The descent monitor's two loops, ``descent_along`` and
``lyapunov_descent_check``, each write out only its float screen,
expression for expression (a test pins the two to the same results); the
q < p guard, the skip rule, the exact decision and the result are written
once, in ``_undecided_steps``.
The module also evaluates local stability of the fixed point, classifies
parameter points against the five previously-settled parameter regions,
emits grids of g for inspection, and samples parameter batches for
``sweep``, which runs convergence, descent and stability over a batch.
"""
from __future__ import annotations

import functools
import math
import sys
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
    Both arithmetics run the same loop, which tests each new state's view
    as it computes it.  Its float tests read the exact values as they are:
    a ``Fraction`` minus a float, or over one, is the float result of its
    float view, so the tests see what the float orbit's would.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    one, p, q, x_prev, x_cur = map(Fraction if exact else float,
                                   (1, params.p, params.q, seed[0], seed[1]))
    xbar = equilibrium(params).xbar
    inf = math.inf
    qf = float(params.q)
    a, b = float(x_prev), float(x_cur)
    if not (0.0 < a / qf < inf and 0.0 < b / qf < inf):
        raise ValueError(f"state n=0 must be positive and finite, also "
                         f"divided by q in floats: got ({a!r}, {b!r})")

    states: list[tuple[int, float, float]] = []
    verdict = "max-iters-exceeded"
    n = 0
    while True:
        if record_states:
            states.append((n, float(x_prev), float(x_cur)))
        if abs(x_prev - xbar) < tol and abs(x_cur - xbar) < tol:
            verdict = "converged"
            break
        if n >= max_iters:
            break
        x_next = (p + q * x_cur) / (one + x_prev)
        try:
            view = x_next / qf
        except OverflowError:  # an exact state beyond the float range has no view
            view = inf
        if not 0.0 < view < inf:
            verdict = "diverged-nonfinite"  # the last state is the one before
            break
        n += 1
        x_prev, x_cur = x_cur, x_next
    if not record_states:
        states.append((n, float(x_prev), float(x_cur)))
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
    """Verdict of the descent monitor, ``descent_along`` or
    ``lyapunov_descent_check``.  ``checked`` counts the steps decided,
    ``skipped_near_equilibrium`` the undecided ones: steps next to the fixed
    point that the float screen could not accept.  ``decided_exactly``
    counts the checked steps the float screen could not decide."""

    ok: bool  # violation is None; a field while bench/ calls replace(.., ok=False)
    violation: DescentViolation | None
    checked: int
    skipped_near_equilibrium: int
    decided_exactly: int


#: c eps = 12 * 2**-53 in the float screen's error bound away from the fixed
#: point, and c = 72 next to it, inside the disk s^2 + t^2 <= near_sq of
#: ``_near_square`` (see ``descent_along``).
_ROUNDOFF_BOUND = 12 * 2.0**-53
_NEAR_ROUNDOFF_BOUND = 72 * 2.0**-53

#: 1/8 less 2**-49 of itself: k * _NEAR_DISK * k is the squared radius of
#: the disk inscribed in the diamond |s| + |t| <= k/2, less the margin that
#: ``_near_square`` counts.
_NEAR_DISK = 0.125 * (1.0 - 2.0**-49)


def _near_square(k: float) -> float:
    """The bound of the monitor's near-field test ``s*s + t*t <= near_sq``,
    for k = 1 + u as a float, u >= 1 the float fixed point and s, t the float
    differences y - u of a state's views y.

    Wherever the test passes, the exact differences satisfy |s| + |t| <=
    (1 + u)/2, with k = 1 + u taken exactly: the disk s^2 + t^2 <=
    (1 + u)^2/8 lies in that diamond, and the float test implies the disk.
    With eps = 2**-53, the bound (k * _NEAR_DISK) * k is at most
    (1 + u)^2/8 (1 + eps)^4 (1 - 16 eps), one (1 + eps) for the rounding of
    k and two for this function's products.  The float sum of squares is at
    least (s^2 + t^2)(1 - eps)^4 less 2**-1074: in each square (1 - eps)^2
    for the rounding of s or t, one (1 - eps) for the square's own and one
    for the sum's, and 2**-1074 for the underflow of a square.  Since (1 + eps)^4 (1 - 16 eps)
    < (1 - eps)^4 (1 - 8 eps) and (1 + u)^2/8 >= 1/2, the margin covers
    them all.  Where the product overflows, (1 + u)^2/8 (1 - eps)^4
    exceeds the largest float, which is returned: a finite sum of squares
    passes, an overflowed one does not.
    """
    return min(k * _NEAR_DISK * k, sys.float_info.max)


def descent_along(params: ParamsPQ,
                  states: Iterable[tuple[int, float, float]]) -> DescentResult:
    """Check that g drops strictly, min(g[n+1], g[n+2]) < g[n], along
    given states: a trace's, or any others.

    ``states`` are (n, x[n-1], x[n]) triples, as in ``OrbitTrace.states``;
    they are read once, in order, up to the first state whose view
    y = x/q is not positive and finite in floats, where the orbit ends and
    reading stops.  Each state's two views are computed afresh from that
    state.  Every state of the orbit but the last two is a step, checked or
    skipped.  Requires q < p, the regime in which the transformed fixed
    point u exceeds 1 (``equilibrium`` gives a float u >= 1 there) and g
    drops strictly within two steps everywhere off the fixed point, so a
    state repeated off the fixed point is a violation.  A step the float
    screen below accepts is checked wherever it lies.  A step it cannot
    accept is skipped next to the fixed point and decided exactly
    elsewhere, by the judge of ``_undecided_steps``.

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

    Next to it, where the float s^2 + t^2 is at most near_sq of
    ``_near_square``, E = c eps G with c = 72.  near_sq is k^2/8 less
    2**-49 of itself, a margin that covers the eight roundings on the two
    sides of the test (``_near_square`` counts them), so the test implies
    |s| + |t| <= k/2 exactly.  There, since |st| <= (s^2 + t^2)/2 and
    u >= 1,

        N >= (s^2 + t^2)(k - |s| - |t|)/2,  T <= (s^2 + t^2)(3k/2 + (|s| + |t|)/2),

    so T <= 7N.  The float G is then within a G of the true one,
    a = 7 gamma_10 / (1 - 7 gamma_10), and the roundings of c eps G and of
    G -/+ E are covered once c eps >= (a + eps)/(1 - eps)^2, a floor of
    71.0...eps; c = 72 also covers an underflow of st/u (at most 2**-967
    relative to N).  An intermediate overflow gives an infinite or nan
    bound, and so a screen that decides nothing.  The count assumes no
    other underflow: a nonzero s or t is at least 2**-53 in magnitude.

    The screen accepts a step when min(hi[n+1], hi[n+2]) < lo[n]: every
    accepted step is then a strict drop.  Only where the screen cannot
    accept does the loop ask whether the window holds a whole step, and
    it hands such a step to the judge, which skips it or decides it
    exactly; every violation is decided exactly.  The loop counts the
    orbit's states as it reads them, and the result's counts follow from
    that count and the judge's.
    """
    u, qf, k, near_sq, judge, result = _undecided_steps(params)
    inf = math.inf
    far_bound, near_bound = _ROUNDOFF_BOUND, _NEAR_ROUNDOFF_BOUND
    # The three-state window holds the raw states, oldest first: w0 is the
    # state a step is checked at.  lo/hi are the screen's bounds on each
    # state's G.
    w1 = w2 = violation = None
    lo1 = hi1 = lo2 = hi2 = 0.0
    read = 0  # the orbit's states read; a state without a view is not one
    for state in states:
        _, x0, x1 = state
        ya = x0 / qf
        if not 0.0 < ya < inf:
            break  # the orbit ends at its first state without a view
        yb = x1 / qf
        if not 0.0 < yb < inf:
            break
        read += 1
        s = ya - u
        t = yb - u
        st = s * t
        sq = s * s + t * t
        stu = st / u
        g = (k * (sq - stu) + st * (s + t)) / ya / yb
        if sq <= near_sq:
            e = near_bound * g
        else:
            sa = abs(s)
            ta = abs(t)
            e = far_bound * ((k * (sq + abs(stu)) + sa * ta * (sa + ta)) / ya / yb)
        w0, w1, w2 = w1, w2, state
        lo0, lo1, lo2 = lo1, lo2, g - e
        hi1, hi2 = hi2, g + e
        if hi1 < lo0 or hi2 < lo0 or w0 is None:
            continue
        violation = judge(w0[0], w0[1:], w1[1:], w2[1:])
        if violation is not None:
            break
    return result(read, violation)


def _undecided_steps(params: ParamsPQ):
    """The descent monitor's rules besides its float screen, written once for
    both loops.  Raises ValueError unless q < p; returns (u, q, k, near_sq,
    judge, result), with u the float fixed point, q as a float, k = 1 + u
    and near_sq the bound of the screen's near-field test.

    ``judge(n, state0, state1, state2)`` takes a step the screen cannot
    accept, as its index and its states' (x[n-1], x[n]) pairs, and returns
    the ``DescentViolation`` at n, or None.  It skips the step when its
    state lies within ``EQ_TOL`` relative to u of the fixed point in both
    coordinates: there a float orbit's position is dominated by rounding,
    so its exact g's say nothing of the true orbit, and deciding them
    exactly would send every later step of an orbit settled there down the
    exact decision.  It decides any other step, every violation among
    them, exactly: the screen's strict inequality on ``invariant_value`` at
    the states' exact binary views x/q as ``Fraction``s, with the exact
    alpha~ = u(u - 1) formed at the first such step and each state's exact
    g evaluated once (a cache of the last three, keyed by a state's
    coordinates).  A violation is therefore a genuine property of the given
    states, not of rounding; its g values are the floats
    ``invariant_value`` gives.

    ``result(read, violation)`` is the ``DescentResult`` of a loop that read
    ``read`` of the orbit's states: each but the last two is a step, and
    the steps not skipped were checked.
    """
    if not params.q < params.p:
        raise ValueError("descent check requires q < p")
    info = equilibrium(params)
    u = info.ybar
    qf = float(params.q)
    skip_below = EQ_TOL * u
    skipped = exact = 0  # undecided steps skipped; steps decided exactly
    g_exact = None

    def judge(n, state0, state1, state2):
        nonlocal skipped, exact, g_exact
        a, b = state0
        if abs(a / qf - u) <= skip_below and abs(b / qf - u) <= skip_below:
            skipped += 1
            return None
        exact += 1
        if g_exact is None:  # formed at the first step decided exactly
            alpha = Fraction(u) * (Fraction(u) - 1)

            @functools.lru_cache(maxsize=3)  # keyed by coordinates: a state may be a list
            def g_exact(x_prev, x_cur):
                return invariant_value(alpha, Fraction(x_prev / qf), Fraction(x_cur / qf))

        g0 = g_exact(*state0)
        if g_exact(*state1) < g0 or g_exact(*state2) < g0:
            return None
        return DescentViolation(n, *(invariant_value(info.alpha_tilde, a / qf, b / qf)
                                     for a, b in (state0, state1, state2)))

    def result(read, violation):
        steps = read - 2 if read > 2 else 0
        return DescentResult(violation is None, violation, steps - skipped, skipped, exact)

    k = 1.0 + u
    return u, qf, k, _near_square(k), judge, result


def lyapunov_descent_check(params: ParamsPQ, seed: tuple, steps: int) -> DescentResult:
    """``descent_along`` the first ``steps + 3`` states of the float orbit from
    ``seed``: the states ``simulate`` walks, so ``steps + 1`` steps are
    checked or skipped, fewer where the orbit ends at a state without a
    view.  ``steps`` must be a nonnegative int.

    The result equals ``descent_along`` on those states, a test pins that,
    but the loop steps the recurrence itself: each pass computes x[m+1],
    the view of x[m] and the screen's bounds on state m, and the window of
    the three states a step reads is held as four x values, x[m-3] to
    x[m].  The screen is ``descent_along``'s, expression for expression;
    the guard, the skip rule, the exact decision and the result come from
    ``_undecided_steps``, as there.
    """
    if not (isinstance(steps, int) and not isinstance(steps, bool) and steps >= 0):
        raise ValueError("steps must be a nonnegative int")
    p = float(params.p)
    x3, x4 = float(seed[0]), float(seed[1])
    u, qf, k, near_sq, judge, result = _undecided_steps(params)
    inf = math.inf
    far_bound, near_bound = _ROUNDOFF_BOUND, _NEAR_ROUNDOFF_BOUND
    # x3 is x[m-1] and x4 is x[m] when a pass starts; the pass moves them to
    # x2 and x3 and computes x[m+1] into x4 before anything can end it.
    # The view y of x[m] and its offset t from u are carried to the next
    # pass, where x[m] is x[m-1] (ya, s).
    x1 = x2 = math.nan
    yb = x3 / qf
    t = yb - u
    violation = None
    lo1 = hi1 = lo2 = hi2 = 0.0
    m = -1  # the index of the last state read that has a view
    for m in range(steps + 3 if 0.0 < yb < inf else 0):
        x0 = x1
        x1 = x2
        x2 = x3
        x3 = x4
        x4 = (p + qf * x3) / (1.0 + x2)
        ya, s = yb, t
        yb = x3 / qf
        if not 0.0 < yb < inf:
            m -= 1
            break  # the orbit ends at its first state without a view
        t = yb - u
        st = s * t
        sq = s * s + t * t
        stu = st / u
        g = (k * (sq - stu) + st * (s + t)) / ya / yb
        if sq <= near_sq:
            e = near_bound * g
        else:
            sa = abs(s)
            ta = abs(t)
            e = far_bound * ((k * (sq + abs(stu)) + sa * ta * (sa + ta)) / ya / yb)
        lo0, lo1, lo2 = lo1, lo2, g - e
        hi1, hi2 = hi2, g + e
        if hi1 < lo0 or hi2 < lo0 or m < 2:
            continue
        violation = judge(m - 2, (x0, x1), (x1, x2), (x2, x3))
        if violation is not None:
            break
    return result(m + 1, violation)


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
