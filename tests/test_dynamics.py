"""Tests for orbit simulation, descent monitoring, stability, regions, grids."""

import io
import math
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyness.dynamics import (
    EQ_TOL,
    UNCONVERGED_DESCENT_STEPS,
    DescentResult,
    DescentViolation,
    _NEAR_ROUNDOFF_BOUND,
    _orbit,
    g_grid,
    grid_to_csv,
    classify_regions,
    descent_along,
    local_stability,
    lyapunov_descent_check,
    random_instances,
    simulate,
    sweep,
    stability_from_ua,
    trace_to_csv,
)
from lyness.model import ParamsPQ, equilibrium, invariant_value


def small_height_instances(rng, count):
    """Random instances with q < p and small rational height, so the exact
    orbit's integer sizes stay manageable."""
    out = []
    while len(out) < count:
        p = Fraction(rng.randint(1, 1000), rng.randint(1, 10))
        q = Fraction(rng.randint(1, 1000), rng.randint(1, 10))
        if not q < p:
            continue
        seed = (Fraction(rng.randint(1, 200), rng.randint(1, 10)),
                Fraction(rng.randint(1, 200), rng.randint(1, 10)))
        out.append((ParamsPQ(p, q), seed))
    return out


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_converges_to_reference_equilibrium():
    trace = simulate(ParamsPQ(20, 4), (1.0, 2.0))
    assert trace.converged
    assert trace.verdict == "converged"
    _, _, final = trace.states[-1]
    assert abs(final - 6.216990566028302) < 1e-8
    assert trace.iters_to_tol == trace.states[-1][0]


def test_simulate_square_root_two_case():
    # p = 2, q = 1: the equilibrium is sqrt(2)
    trace = simulate(ParamsPQ(2, 1), (3.0, 0.5))
    assert trace.converged
    assert abs(trace.states[-1][2] - math.sqrt(2.0)) < 1e-8


def test_simulate_equilibrium_seed_stops_immediately():
    xbar = equilibrium(ParamsPQ(20, 4)).xbar
    trace = simulate(ParamsPQ(20, 4), (xbar, xbar))
    assert trace.converged
    assert trace.iters_to_tol == 0
    assert len(trace.states) == 1


def test_simulate_detects_float_overflow():
    # q * x[0] overflows on the first step while the equilibrium itself is
    # still representable
    trace = simulate(ParamsPQ(1.0, 1e4), (1e-30, 1e305), max_iters=50)
    assert trace.verdict == "diverged-nonfinite"
    assert not trace.converged
    assert len(trace.states) == 1


def test_simulate_validation():
    with pytest.raises(ValueError, match="tolerance"):
        simulate(ParamsPQ(2, 1), (1.0, 1.0), tol=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        simulate(ParamsPQ(2, 1), (1.0, 1.0), tol=math.nan)
    with pytest.raises(ValueError, match="max_iters"):
        simulate(ParamsPQ(2, 1), (1.0, 1.0), max_iters=-1)
    with pytest.raises(ValueError, match="state n=0"):
        simulate(ParamsPQ(2, 1), (0.0, 1.0))
    with pytest.raises(ValueError, match="state n=0"):
        # positive as a rational, 0.0 once rounded to a float
        simulate(ParamsPQ(2, 1), (Fraction(1, 10**400), 1.0))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("record_states", [True, False])
def test_simulate_checks_the_seed_over_q_whether_or_not_it_records(exact, record_states):
    # the seed is finite, its view divided by q = 1/2 overflows; it is
    # checked before the first step, whether or not the states are recorded
    with pytest.raises(ValueError, match=r"^state n=0 must be positive and finite, also "
                                         r"divided by q in floats: got \(1\.0, 1e\+308\)$"):
        simulate(ParamsPQ(1, Fraction(1, 2)), (1.0, 1e308), exact=exact, max_iters=20,
                 record_states=record_states)


@pytest.mark.parametrize("record_states", [True, False])
def test_iters_to_tol_is_the_converged_state_n(record_states):
    for params, seed, kwargs, verdict, iters in (
            (ParamsPQ(20, 4), (1.0, 2.0), {}, "converged", 306),
            (ParamsPQ(1.0, 1e4), (1e-30, 1e305), {"max_iters": 50}, "diverged-nonfinite", None),
            (ParamsPQ(20, 4), (1.0, 2.0), {"max_iters": 10, "tol": 1e-300},
             "max-iters-exceeded", None)):
        trace = simulate(params, seed, record_states=record_states, **kwargs)
        assert trace.verdict == verdict
        assert trace.iters_to_tol == iters


def test_simulate_without_recording_keeps_final_state():
    # converged, diverged (the thin trace keeps the last finite state) and
    # stopped at max_iters
    for params, seed, kwargs, verdict in (
            (ParamsPQ(20, 4), (1.0, 2.0), {}, "converged"),
            (ParamsPQ(1.0, 1e4), (1e-30, 1e305), {"max_iters": 50}, "diverged-nonfinite"),
            (ParamsPQ(20, 4), (1.0, 2.0), {"max_iters": 10, "tol": 1e-300},
             "max-iters-exceeded")):
        full = simulate(params, seed, record_states=True, **kwargs)
        thin = simulate(params, seed, record_states=False, **kwargs)
        assert full.verdict == verdict
        assert len(thin.states) == 1
        assert thin.states[0] == full.states[-1]
        assert thin.verdict == full.verdict
        assert thin.iters_to_tol == full.iters_to_tol


def has_view(x, q) -> bool:
    """Whether the state value x has a positive, finite float view x/q."""
    try:
        return 0 < float(x) / float(q) < math.inf
    except OverflowError:
        return False


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("params, seed, kwargs, verdict", [
    (ParamsPQ(6, 2), (Fraction(29, 10), Fraction(31, 10)), {"tol": 1e-2}, "converged"),
    (ParamsPQ(20, 4), (1, 2), {"max_iters": 12, "tol": 1e-300}, "max-iters-exceeded"),
    # x[1] = 1e170 and x[2] = 1e370, beyond the float range in either arithmetic
    (ParamsPQ(1, 10**200), (Fraction(1, 10**30), Fraction(1, 10**30)), {"max_iters": 8},
     "diverged-nonfinite"),
], ids=["converged", "max-iters", "diverged"])
def test_simulate_and_orbit_give_the_same_states(params, seed, kwargs, verdict, exact):
    # simulate applies the recurrence in its own loop and _orbit feeds the
    # descent check: both give the same states, the exact ones as floats
    trace = simulate(params, seed, exact=exact, record_states=True, **kwargs)
    assert trace.verdict == verdict
    assert len(trace.states) > 1
    kind = Fraction if exact else float
    p, q, *start = map(kind, (params.p, params.q, *seed))
    *walked, (_, _, beyond) = _orbit(p, q, tuple(start), len(trace.states) + 1)
    assert trace.states == tuple((n, float(a), float(b)) for n, a, b in walked)
    assert all(has_view(b, params.q) for _, _, b in walked)
    assert has_view(beyond, params.q) == (verdict != "diverged-nonfinite")


def test_float_and_exact_orbits_agree():
    # exact integer growth is roughly Fibonacci-exponential in the step
    # count, so the cross-check runs at a depth where it is still fast
    rng = random.Random(909)
    for params, seed in small_height_instances(rng, 50):
        tf = simulate(params, seed, tol=1e-300, max_iters=30)
        te = simulate(params, seed, exact=True, tol=1e-300, max_iters=30)
        assert len(tf.states) == len(te.states) == 31
        for (_, _, xf), (_, _, xe) in zip(tf.states, te.states):
            assert abs(xf - xe) <= 1e-9 * max(1.0, abs(xe))


def test_float_and_exact_orbits_agree_deeper_single_instance():
    params, seed = small_height_instances(random.Random(77), 1)[0]
    tf = simulate(params, seed, tol=1e-300, max_iters=40)
    te = simulate(params, seed, exact=True, tol=1e-300, max_iters=40)
    assert len(tf.states) == len(te.states) == 41
    for (_, _, xf), (_, _, xe) in zip(tf.states, te.states):
        assert abs(xf - xe) <= 1e-9 * max(1.0, abs(xe))


def test_exact_orbit_stays_positive():
    params, seed = small_height_instances(random.Random(5), 1)[0]
    trace = simulate(params, seed, exact=True, tol=1e-300, max_iters=25)
    assert all(xp > 0 and xc > 0 for _, xp, xc in trace.states)


def test_g_values_descend_along_float_trace():
    params = ParamsPQ(20, 4)
    trace = simulate(params, (1.0, 2.0))
    alpha_tilde = equilibrium(params).alpha_tilde
    g = [invariant_value(alpha_tilde, xp / 4, xc / 4) for _, xp, xc in trace.states]
    # two-step descent: every value is beaten within two steps, away from
    # the equilibrium tail of the orbit
    for n in range(0, min(len(g) - 2, 50)):
        assert min(g[n + 1], g[n + 2]) < g[n] + 1e-12


def test_trace_csv_format():
    params = ParamsPQ(20, 4)
    trace = simulate(params, (1.0, 2.0), max_iters=10, tol=1e-300)
    buf = io.StringIO()
    trace_to_csv(params, trace, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "n,x_prev,x_curr,g"
    assert len(lines) == len(trace.states) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 1.0 and float(first[2]) == 2.0
    ns = [int(row.split(",")[0]) for row in lines[1:]]
    assert ns == list(range(len(trace.states)))


# ---------------------------------------------------------------------------
# Lyapunov descent monitoring
# ---------------------------------------------------------------------------


def test_descent_reference_orbit():
    result = lyapunov_descent_check(ParamsPQ(20, 4), (1.0, 2.0), 500)
    assert result.ok
    assert result.violation is None
    assert result.checked > 0


def test_descent_skips_equilibrium_seed():
    xbar = equilibrium(ParamsPQ(20, 4)).xbar
    result = lyapunov_descent_check(ParamsPQ(20, 4), (xbar, xbar), 100)
    assert result.ok
    assert result.checked == 0
    assert result.skipped_near_equilibrium == 101


def test_descent_many_seeds_one_instance():
    rng = random.Random(2024)
    for _ in range(100):
        seed = (math.exp(rng.uniform(math.log(1e-2), math.log(1e2))),
                math.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        result = lyapunov_descent_check(ParamsPQ(2, 1), seed, 100)
        assert result.ok, (seed, result.violation)


def test_descent_batch_over_many_instances():
    rng = random.Random(515)
    instances = random_instances(rng, 50, 3)
    total_checked = total_obs = 0
    for params, seed in instances:
        result = lyapunov_descent_check(params, seed, 100)
        assert result.ok, (params, seed, result.violation)
        total_checked += result.checked
        total_obs += result.checked + result.skipped_near_equilibrium
    assert total_obs == len(instances) * 101
    assert total_obs >= 10**4
    assert total_checked >= 10**4


def test_descent_check_reads_the_simulated_orbit():
    # the monitor checks exactly the states simulate walks, bit for bit; at
    # tol 1e-300 a trace stops early only where it lands on the equilibrium
    # exactly, as one instance's orbits do at n = 28
    for params, seed in random_instances(random.Random(31), 10, 2):
        xbar = equilibrium(params).xbar
        for steps in (0, 60):
            trace = simulate(params, seed, tol=1e-300, max_iters=steps + 2)
            walked = len(trace.states) - 3
            if trace.converged:
                assert trace.iters_to_tol == trace.states[-1][0] == walked + 2
                assert trace.states[-1][1:] == (xbar, xbar)
            else:
                assert walked == steps
            assert (lyapunov_descent_check(params, seed, walked)
                    == descent_along(params, trace.states))


def test_descent_along_reports_a_rise():
    params = ParamsPQ(20, 4)
    xbar = equilibrium(params).xbar
    near, far = xbar + 0.1, 100.0
    result = descent_along(params, [(0, near, near), (1, near, far), (2, far, far)])
    assert not result.ok
    assert result.checked == 1
    assert result.decided_exactly == 1
    assert result.violation.index == 0
    assert result.violation.g_n < min(result.violation.g_next, result.violation.g_next2)
    assert result.violation.g_n == invariant_value(equilibrium(params).alpha_tilde,
                                                   near / 4, near / 4)


def test_a_skipped_step_never_reaches_the_tie_break():
    # g rises from the fixed point to (x, 100), so the screen fails, but the
    # step sits at the fixed point: it is skipped, not decided exactly
    params = ParamsPQ(20, 4)
    xbar = equilibrium(params).xbar
    result = descent_along(params, [(0, xbar, xbar), (1, xbar, 100.0), (2, 100.0, 100.0)])
    assert result == DescentResult(True, None, 0, 1, 0)


def test_a_screened_step_next_to_the_fixed_point_is_checked():
    # the showcase orbit ends within the skip distance of the fixed point,
    # where the screen still accepts every step: none is skipped
    params = ParamsPQ(20, 4)
    result = descent_along(params, simulate(params, (1.0, 2.0)).states)
    assert result == DescentResult(True, None, 305, 0, 0)


def test_descent_counts_follow_the_states_read():
    # (checked, skipped) for every prefix, and with the state at each
    # position replaced by one without a view, where reading stops
    params = ParamsPQ(20, 4)
    xbar = equilibrium(params).xbar
    states = [(0, xbar, xbar), (1, xbar, 1.0), (2, 1.0, 2.0), (3, xbar, xbar),
              (4, xbar, xbar), (5, 2.0, xbar)]
    counts = [(0, 0), (0, 0), (0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
    for size, (checked, skipped) in enumerate(counts):
        assert descent_along(params, states[:size]) == DescentResult(True, None, checked,
                                                                     skipped, 0), size
    for j in range(len(states)):
        for bad in ((j, states[j][1], -1.0), (j, 0.0, states[j][2])):
            result = descent_along(params, states[:j] + [bad] + states[j + 1:])
            assert result == DescentResult(True, None, *counts[j], 0), bad


def test_the_exact_path_evaluates_each_state_once(monkeypatch):
    # every step is decided exactly here (the screen's s*s overflows); the
    # exact g of a state stays in a three-entry cache for the steps that read it
    calls = []

    def counted(alpha_tilde, x, y):
        calls.append(type(x))
        return invariant_value(alpha_tilde, x, y)

    monkeypatch.setattr("lyness.dynamics.invariant_value", counted)
    (record,) = sweep([(ParamsPQ(1e300, 1.0), (1.610880713453163e-219, 3.947781747543519e-71))],
                      1e-8, 10)
    assert record.descent == DescentResult(True, None, 501, 0, 501)
    assert record.trace.states == ((10, 1.2000000000000003e+299, 5.090909090909091e+299),)
    assert record.trace.verdict == "max-iters-exceeded"
    assert calls == [Fraction] * len(calls) and len(calls) <= 503


def test_a_violation_reports_finite_g_where_the_float_formula_overflows():
    # g ~ 1e200 here, but (1+x)(1+y)(alpha~+x+y) overflows
    params = ParamsPQ(1e200, 2)
    states = simulate(params, (1.0, 1.0), max_iters=5).states
    result = descent_along(params, states)
    v = result.violation
    assert v.index == 2
    info = equilibrium(params)
    u = Fraction(info.ybar)
    floats = [invariant_value(info.alpha_tilde, a / 2, b / 2) for _, a, b in states[2:5]]
    exact = [float(invariant_value(u * (u - 1), Fraction(a) / 2, Fraction(b) / 2))
             for _, a, b in states[2:5]]
    # the float g overflows only where g does: every value shown is finite
    # and is the exact one rounded once
    assert all(math.isfinite(g) for g in floats)
    assert [v.g_n, v.g_next, v.g_next2] == floats == exact


def _g_shifted(u, y0, y1):
    """Reference for the monitor's inline screen: floats (lo, hi) with
    lo <= G <= hi for G = g(y0, y1) - g(u, u), alpha~ = u(u - 1) and
    y0, y1 > 0, written out as ``descent_along``'s docstring states it:
    E = 72 eps G where |s| + |t| <= (1 + u)/2, else E = 12 eps T / (y0 y1)."""
    s = y0 - u
    t = y1 - u
    st = s * t
    ss = s * s
    tt = t * t
    stu = st / u
    k = 1.0 + u
    g = (k * (ss + tt - stu) + st * (s + t)) / y0 / y1
    if abs(s) + abs(t) <= k / 2:
        e = 72 * 2.0**-53 * g
    else:
        e = 12 * 2.0**-53 * ((k * (ss + tt + abs(stu)) + abs(st) * (abs(s) + abs(t)))
                             / y0 / y1)
    return g - e, g + e


def test_descent_along_takes_the_exact_path_when_the_screen_cannot_decide():
    # far from the fixed point at large u, states one ulp apart on the
    # diagonal, where g grows with y: each step is a genuine drop of g, far
    # below the rounding bound E, so every one falls through to the exact
    # path, which accepts it
    params = ParamsPQ(1000, 0.01)
    info = equilibrium(params)
    assert info.ybar > 3000
    xs = [1e4 * info.xbar]
    for _ in range(4):
        xs.append(math.nextafter(xs[-1], 0.0))
    exact = [g_fraction(info.ybar, x / 0.01, x / 0.01) for x in xs]
    assert all(b < a for a, b in zip(exact, exact[1:]))
    lo, hi = _g_shifted(info.ybar, xs[0] / 0.01, xs[0] / 0.01)
    assert exact[0] - exact[2] < (hi - lo) / 2
    result = descent_along(params, [(n, x, x) for n, x in enumerate(xs)])
    assert result == DescentResult(True, None, 3, 0, 3)
    assert descent_along(params, [[n, x, x] for n, x in enumerate(xs)]) == result


def test_a_repeated_state_off_the_fixed_point_is_a_violation():
    # g does not drop at all along a repeated state: the lemma's strict
    # inequality fails at the first step
    params = ParamsPQ(20, 4)
    info = equilibrium(params)
    x = 3 * info.xbar
    result = descent_along(params, [(n, x, x) for n in range(5)])
    g = invariant_value(info.alpha_tilde, x / 4, x / 4)
    assert not result.ok
    assert result.violation == DescentViolation(0, g, g, g)
    assert (result.checked, result.skipped_near_equilibrium, result.decided_exactly) == (1, 0, 1)
    # states given as lists reach the exact path too
    assert descent_along(params, [[n, x, x] for n in range(5)]) == result


def descent_reference(params, states):
    """``descent_along`` before the shifted screen: the 1e-9 float screen on
    g itself, the same skip rule where that screen fails, and the strict
    tie-break in plain ``Fraction`` arithmetic, with exact g from
    ``invariant_value`` on the states' ``Fraction`` values."""
    info = equilibrium(params)
    u, alpha_tilde = info.ybar, info.alpha_tilde
    exact_alpha_tilde = Fraction(u) * (Fraction(u) - 1)
    qf = float(params.q)
    ys = [(n, a / qf, b / qf) for n, a, b in states]
    g = [invariant_value(alpha_tilde, ya, yb) for _, ya, yb in ys]

    @cache
    def g_exact(j):
        return invariant_value(exact_alpha_tilde, Fraction(ys[j][1]), Fraction(ys[j][2]))

    checked = skipped = exact = 0
    for i in range(len(ys) - 2):
        n, ya, yb = ys[i]
        if min(g[i + 1], g[i + 2]) < g[i] - 1e-9 * max(1.0, abs(g[i])):
            checked += 1
            continue
        if max(abs(ya - u), abs(yb - u)) <= EQ_TOL * max(1.0, u):
            skipped += 1
            continue
        checked += 1
        exact += 1
        if min(g_exact(i + 1), g_exact(i + 2)) < g_exact(i):
            continue
        return DescentResult(False, DescentViolation(n, g[i], g[i + 1], g[i + 2]),
                             checked, skipped, exact)
    return DescentResult(True, None, checked, skipped, exact)


def assert_same_descent(result, reference):
    """The same verdict, violation and number of steps; ``decided_exactly``
    may only fall.  The screens differ, so which steps are left undecided
    next to the fixed point, and so the split of checked and skipped, may
    differ too."""
    assert (result.ok, result.violation) == (reference.ok, reference.violation)
    assert (result.checked + result.skipped_near_equilibrium
            == reference.checked + reference.skipped_near_equilibrium)
    assert result.decided_exactly <= reference.decided_exactly


@st.composite
def states_near_the_fixed_point(draw):
    """(params, states) with q < p and states mostly within about 1e-6
    relative of the fixed point, where the float screen cannot decide and g
    often rises; other scales give skipped and float-decided steps."""
    p = draw(st.floats(0.05, 500.0))
    params = ParamsPQ(p, p * draw(st.floats(0.01, 0.99)))
    xbar = equilibrium(params).xbar
    scales = st.sampled_from([0.0, 1e-12, 1e-7, 1e-6, 1e-6, 1e-6, 1e-3, 0.5])
    offsets = st.floats(-1.0, 1.0)
    states = [(n, *(xbar * (1.0 + draw(scales) * draw(offsets)) for _ in "ab"))
              for n in range(draw(st.integers(3, 12)))]
    return params, states


@settings(max_examples=400, deadline=None)
@given(states_near_the_fixed_point())
def test_descent_along_matches_fraction_tie_break(case):
    params, states = case
    assert_same_descent(descent_along(params, states), descent_reference(params, states))


@pytest.fixture(scope="module")
def sweep_orbit_states():
    """(params, states) of criterion 08's 300 orbits, each walked as far as
    criterion 08 checks it; simulated once for the module."""
    orbits = []
    for params, seed in random_instances(random.Random(74), 100, 3):
        trace = simulate(params, seed, tol=1e-8, max_iters=10**6, record_states=False)
        steps = trace.iters_to_tol
        if steps is None:
            steps = UNCONVERGED_DESCENT_STEPS
        orbits.append((params, simulate(params, seed, tol=1e-300, max_iters=steps + 2).states))
    return orbits


def test_descent_along_matches_the_g_screen_on_the_sweep_orbits(sweep_orbit_states):
    # criterion 08's 300 orbits, state for state: the shifted screen changes
    # which steps take the exact path or are skipped, never a verdict or the
    # number of steps
    for params, states in sweep_orbit_states:
        assert_same_descent(descent_along(params, states), descent_reference(params, states))


def g_fraction(u, y0, y1):
    """g(y0, y1) - g(u, u) in ``Fraction``s, with alpha~ = u(u - 1)."""
    u, y0, y1 = Fraction(u), Fraction(y0), Fraction(y1)
    return invariant_value(u * (u - 1), y0, y1) - (1 + u) ** 3 / u


def descent_screened(params, states):
    """``descent_along`` as its docstring specifies it, built on the
    reference enclosure ``_g_shifted``: the shifted screen's strict
    comparison, the skip rule where that fails, and the strict tie-break on
    ``g_fraction``."""
    info = equilibrium(params)
    u = info.ybar
    qf = float(params.q)
    ys = [(n, a / qf, b / qf) for n, a, b in states]
    bounds = [_g_shifted(u, ya, yb) for _, ya, yb in ys]
    checked = skipped = exact = 0
    for i in range(len(ys) - 2):
        n, ya, yb = ys[i]
        if min(bounds[i + 1][1], bounds[i + 2][1]) < bounds[i][0]:
            checked += 1
            continue
        if max(abs(ya - u), abs(yb - u)) <= EQ_TOL * max(1.0, u):
            skipped += 1
            continue
        checked += 1
        exact += 1
        g_cur, g_next, g_next2 = (g_fraction(u, *y[1:]) for y in ys[i:i + 3])
        if min(g_next, g_next2) < g_cur:
            continue
        g = [invariant_value(info.alpha_tilde, *y[1:]) for y in ys[i:i + 3]]
        return DescentResult(False, DescentViolation(n, *g), checked, skipped, exact)
    return DescentResult(True, None, checked, skipped, exact)


@settings(max_examples=400, deadline=None)
@given(states_near_the_fixed_point())
def test_descent_along_matches_the_reference_screen(case):
    params, states = case
    assert descent_along(params, states) == descent_screened(params, states)


def test_descent_along_matches_the_reference_screen_on_the_sweep_orbits(sweep_orbit_states):
    for params, states in sweep_orbit_states:
        assert descent_along(params, states) == descent_screened(params, states)


def screen_edge(params, cur):
    """Values z next to where the reference screen's verdict on the step
    from ``cur`` = (w, z0) to (w, z) flips, in y = x/q.

    One of z0 (1 +- 1e-8) gets a different verdict from z0; bisection over
    the floats between them finds two adjacent floats with different
    verdicts, and the 32 floats on either side are returned."""
    u = equilibrium(params).ybar
    w, z = cur
    bar = _g_shifted(u, *cur)[0]

    def decided(zz):
        return _g_shifted(u, w, zz)[1] < bar

    inside = decided(z)
    outside = next(zz for zz in (z * (1 + 1e-8), z * (1 - 1e-8)) if decided(zz) != inside)
    while math.nextafter(z, outside) != outside:
        mid = (z + outside) / 2
        if mid in (z, outside):
            mid = math.nextafter(z, outside)
        z, outside = (mid, outside) if decided(mid) == inside else (z, mid)
    toward = math.inf if outside > z else -math.inf
    for _ in range(32):
        z = math.nextafter(z, -toward)
    edge = []
    for _ in range(64):
        edge.append(z)
        z = math.nextafter(z, toward)
    return edge


def test_descent_along_matches_the_reference_screen_at_its_edge():
    # steps whose screen verdict flips within a few ulps: any change to the
    # enclosure (its constants, an absolute value, the branch) moves
    # decided_exactly here.  The last five points lie where
    # |s| + |t| <= k/2 = 3, the first three well inside, the last two just
    # inside and just outside that line.
    params = ParamsPQ(20, 4)  # q = 4: x = 4y and y = x/4 are exact
    u = equilibrium(params).ybar
    far = (1e6 * u, 1e6 * u)
    for cur in ((3 * u, u / 2), (u / 2, 3 * u), (2 * u, 2.5 * u), (1e5, 1e5), (1e5, u / 3),
                (u + 0.5, u - 0.25), (u - 1.0, u + 1.5), (u + 2.0, u + 0.75),
                (u + 1.5, u - 1.5 + 1e-6), (u + 1.5, u - 1.5 - 1e-6)):
        verdicts = set()
        for z in screen_edge(params, cur):
            states = [(n, 4 * a, 4 * b) for n, (a, b) in enumerate((cur, (cur[0], z), far))]
            result = descent_along(params, states)
            assert result == descent_screened(params, states), (cur, z)
            verdicts.add(result.decided_exactly)
        assert verdicts == {0, 1}, cur


@st.composite
def screened_steps(draw, u=None):
    """u in [1, 1e6] or [1, 1 + 1e-6] unless given, a state at relative
    offsets from 0 to 1 off (u, u), and a second state a few ulps to 1e-6
    relative from the first, so that the two values of g are often within
    rounding of each other.  Next to u = 1 a view close to 0 still
    has |s| + |t| <= (1 + u)/2."""
    if u is None:
        u = draw(st.one_of(st.floats(1.0, 1e6), st.floats(1.0, 1.0 + 1e-6)))
    scales = st.sampled_from([0.0] + [10.0**-k for k in range(15)])

    def away():
        return u * (1.0 + draw(scales) * draw(st.floats(-0.999, 1.0)))

    def near(y):
        return y * (1.0 + draw(st.sampled_from([0.0, 2e-16, 1e-15, 1e-13, 1e-9, 1e-6]))
                    * draw(st.floats(-1.0, 1.0)))

    cur = (away(), away())
    return u, cur, (near(cur[0]), near(cur[1]))


@settings(max_examples=1000, deadline=None)
@given(screened_steps())
def test_shifted_screen_is_sound(case):
    u, cur, nxt = case
    lo, hi = _g_shifted(u, *cur)
    lo_next, hi_next = _g_shifted(u, *nxt)
    exact, exact_next = g_fraction(u, *cur), g_fraction(u, *nxt)
    assert lo <= exact <= hi
    assert lo_next <= exact_next <= hi_next
    if hi_next < lo:
        assert exact_next < exact


@st.composite
def screened_orbit_steps(draw):
    """Params with q < p and ``screened_steps`` around their fixed point."""
    p = draw(st.floats(0.05, 500.0))
    params = ParamsPQ(p, p * draw(st.floats(1e-4, 0.99)))
    _, cur, nxt = draw(screened_steps(equilibrium(params).ybar))
    return params, cur, nxt


@settings(max_examples=500, deadline=None)
@given(screened_orbit_steps())
def test_descent_along_screens_only_exact_drops(case):
    # the monitor's own screen: a step it decides without the exact path is
    # a strict exact drop at the states' y = x/q
    params, cur, nxt = case
    q = float(params.q)
    states = [(n, a * q, b * q) for n, (a, b) in enumerate((cur, nxt, nxt))]
    result = descent_along(params, states)
    if result.checked == 1 and result.decided_exactly == 0:
        u = equilibrium(params).ybar
        (_, a0, b0), (_, a1, b1), _ = states
        assert g_fraction(u, a1 / q, b1 / q) < g_fraction(u, a0 / q, b0 / q)


def test_near_screen_constant_covers_its_floor():
    # the floor descent_along's docstring derives for E = c eps G where
    # |s| + |t| <= k/2: the ratio T <= 7N, loosened for the rounding of the
    # branch test, gamma_10, and the roundings of c eps G and of G -/+ E
    eps = Fraction(1, 2**53)
    eta = (1 + eps) / (1 - eps) ** 2 - 1
    ratio = (7 + eta) / (1 - eta)
    gamma_10 = 10 * eps / (1 - 10 * eps)
    a = gamma_10 * ratio / (1 - gamma_10 * ratio)
    floor = (a + eps) / (1 - eps) ** 2
    assert 71 * eps < floor < 72 * eps
    assert Fraction(_NEAR_ROUNDOFF_BOUND) >= floor


def test_descent_along_rejects_bad_states():
    # non-positive, non-finite, and positive finite x whose x/q overflows or
    # underflows in floats: the orbit ends at such a state, so the monitor
    # stops there and reads nothing after it
    for q, bad in ((0.5, (1.0, 0.0)), (0.5, (-1.0, 1.0)), (0.5, (1.0, math.inf)),
                   (0.5, (math.nan, 1.0)), (0.5, (1e308, 1.0)), (4.0, (1.0, 5e-324))):
        params = ParamsPQ(20, q)
        states = [(0, 1.0, 1.0), (1, 1.0, 1.0), (2, *bad), (3, 1.0, 1.0)]

        def up_to_the_bad_state():
            yield from states[:3]
            raise AssertionError("read past the bad state")

        assert descent_along(params, up_to_the_bad_state()) == descent_along(params, states[:2])


def test_descent_requires_q_below_p():
    with pytest.raises(ValueError, match="q < p"):
        lyapunov_descent_check(ParamsPQ(1, 2), (1.0, 1.0), 10)
    with pytest.raises(ValueError, match="q < p"):
        lyapunov_descent_check(ParamsPQ(2, 2), (1.0, 1.0), 10)
    with pytest.raises(ValueError, match="q < p"):
        descent_along(ParamsPQ(2, 2), [(0, 1.0, 1.0)])
    for steps in (-1, 10.0, 1.5, True, False, "3"):
        with pytest.raises(ValueError, match="steps must be a nonnegative int"):
            lyapunov_descent_check(ParamsPQ(2, 1), (1.0, 1.0), steps)


# ---------------------------------------------------------------------------
# local stability
# ---------------------------------------------------------------------------


def test_spectral_radius_reference_point():
    info = stability_from_ua(2.0, 1.0)
    assert abs(info.spectral_radius - math.sqrt(2.0 / 3.0)) < 1e-15
    assert info.spectral_radius < 1


def test_spectral_radius_real_root_branch():
    # below the fixed-point regime the discriminant turns positive; the
    # radius is then the larger positive real root
    info = stability_from_ua(0.1, 0.1)
    assert abs(info.spectral_radius - (5.0 + math.sqrt(23.0)) / 2.0) < 1e-12
    assert not info.spectral_radius < 1


def test_local_stability_reference_instance():
    info = local_stability(ParamsPQ(20, 4))
    assert info.spectral_radius < 1
    u = equilibrium(ParamsPQ(20, 4)).ybar
    assert abs(info.spectral_radius - math.sqrt(u / (0.25 + u))) < 1e-14


def test_fixed_point_always_linearly_stable_in_regime():
    rng = random.Random(88)
    for params, _ in random_instances(rng, 200, 1):
        info = local_stability(params)
        assert 0.0 < info.spectral_radius < 1.0


def test_spectral_radius_approaches_one_at_regime_boundary():
    radii = [stability_from_ua(1.0 + 10.0 ** -k, 10.0 ** -k).spectral_radius
             for k in range(1, 7)]
    assert all(r < 1.0 for r in radii)
    assert radii == sorted(radii)
    assert radii[-1] > 0.999


# ---------------------------------------------------------------------------
# parameter-region classification
# ---------------------------------------------------------------------------


def regions_direct(p, q):
    """Independent re-implementation of the five membership tests."""
    flags = set()
    if q >= p:
        flags.add("a")
    if 2 * (q + 1) >= p:
        flags.add("b")
    if q > 1:
        if 2 * (q**3 - q**2 + q + math.sqrt(q**4 - 1) - 1) / (q - 1) ** 2 >= p:
            flags.add("c")
        xbar = 0.5 * (q - 1 + math.sqrt((q - 1) ** 2 + 4 * p))
        if xbar <= (q * q + 1) / (q - 1):
            flags.add("d")
    if 4 * p * (q - 1) ** 2 <= 25:
        flags.add("e")
    return frozenset(flags)


def test_showcase_point_lies_outside_every_region():
    cover = classify_regions(ParamsPQ(20, 4))
    assert cover.flags == frozenset()
    assert [c.satisfied for c in cover.checks] == [False] * 5


def test_region_membership_small_points():
    assert classify_regions(ParamsPQ(1, 2)).flags == frozenset("abcde")
    assert classify_regions(ParamsPQ(3, 3)).flags == frozenset("abcd")


def test_regions_c_d_not_applicable_at_q_one():
    cover = classify_regions(ParamsPQ(2, 1))
    flags_cd = {c.flag: c for c in cover.checks}
    assert flags_cd["c"].satisfied is None
    assert flags_cd["d"].satisfied is None
    assert "c" not in cover.flags and "d" not in cover.flags
    assert math.isnan(flags_cd["c"].lhs)
    assert math.isnan(flags_cd["d"].rhs)


def test_region_classifier_matches_direct_reimplementation():
    rng = random.Random(63)
    for _ in range(50):
        p = math.exp(rng.uniform(math.log(1e-2), math.log(1e3)))
        q = math.exp(rng.uniform(math.log(1e-2), math.log(1e3)))
        assert classify_regions(ParamsPQ(p, q)).flags == regions_direct(p, q)


def test_region_e_boundary_behavior():
    # on the curve 4p(q-1)^2 = 25 membership flips
    q = 6.0
    p_on = 25.0 / (4.0 * (q - 1.0) ** 2)
    assert "e" in classify_regions(ParamsPQ(p_on * 0.999, q)).flags
    assert "e" not in classify_regions(ParamsPQ(p_on * 1.001, q)).flags


@pytest.mark.parametrize("p, q, flags", [
    (10**20 + 1, 10**20, "bcd"),  # q < p by 1, equal as floats
    (2 * 10**21 + 3, 10**21, "cd"),  # 2(q+1) < p by 1
    (Fraction(225, 64), Fraction(7, 3), "bcde"),  # 4p(q-1)^2 = 25 exactly
    (625, Fraction(11, 10), "e"),  # 4p(q-1)^2 = 25 exactly
    (3, Fraction("1.0000000000000000000001"), "bcde"),  # q > 1, yet 1.0 as a float
    # region (c)'s bound at q = 101/100 is 4434.1073439666292...; the first p
    # lies a few ulps below it, where the float formula rounds under p
    (Fraction("4434.107343966627"), Fraction(101, 100), "cde"),
    (Fraction("4434.107343966630"), Fraction(101, 100), "de"),
    # next to q = 1 region (c)'s float view overflows, and once q - 1
    # underflows so does (d)'s; neither view decides
    (1, 1 + Fraction(1, 10**210), "abcde"),
    (1, 1 + Fraction(1, 10**400), "abcde"),
])
def test_regions_are_decided_exactly(p, q, flags):
    assert classify_regions(ParamsPQ(p, q)).flags == frozenset(flags)


# ---------------------------------------------------------------------------
# invariant-surface grid
# ---------------------------------------------------------------------------


def test_g_grid_minimum_near_benchmark_equilibrium():
    res = 201
    rows = g_grid(2.0, (0.5, 5.0, 0.5, 5.0), res)
    assert len(rows) == res * res
    x_min, y_min, g_min = min(rows, key=lambda r: r[2])
    # the benchmark equilibrium (2, 2) has g = 13.5; the grid minimum sits
    # at the nearest lattice point
    assert abs(x_min - 2.0) <= 4.5 / (res - 1)
    assert x_min == y_min
    assert 13.5 < g_min < 13.5 + 1e-2
    assert all(g > 13.5 for _, _, g in rows)


def test_g_grid_symmetry():
    res = 41
    rows = g_grid(2.0, (0.5, 5.0, 0.5, 5.0), res)
    value = {(x, y): g for x, y, g in rows}
    for (x, y), g in value.items():
        # symmetric up to the non-associativity of float addition
        assert abs(value[(y, x)] - g) <= 1e-14 * abs(g)


def test_g_grid_validation():
    with pytest.raises(ValueError, match="strictly positive"):
        g_grid(2.0, (0.0, 1.0, 0.5, 1.0), 11)
    with pytest.raises(ValueError, match="xmin < xmax"):
        g_grid(2.0, (1.0, 1.0, 0.5, 1.0), 11)
    with pytest.raises(ValueError, match="resolution"):
        g_grid(2.0, (0.5, 1.0, 0.5, 1.0), 1)
    with pytest.raises(ValueError, match="alpha_tilde"):
        g_grid(0.0, (0.5, 1.0, 0.5, 1.0), 11)
    with pytest.raises(ValueError, match="alpha_tilde"):
        g_grid(math.inf, (0.5, 1.0, 0.5, 1.0), 11)
    with pytest.raises(ValueError, match="finite"):
        g_grid(2.0, (0.5, math.inf, 0.5, 1.0), 11)


@pytest.mark.parametrize("alpha_tilde, window", [
    (2.0, (1.0, 1e308, 1.0, 2.0)),  # (xmax - xmin) * 2 overflows to x = inf
    (2.0, (1.0, 2.0, 1.0, 1e308)),
    (1e308, (0.5, 1.0, 0.5, 1.0)),  # every g overflows
], ids=["x", "y", "g"])
def test_g_grid_rejects_values_beyond_the_float_range(alpha_tilde, window):
    with pytest.raises(ValueError, match="g is not finite"):
        g_grid(alpha_tilde, window, 3)


def test_grid_csv_format():
    rows = g_grid(2.0, (1.0, 2.0, 1.0, 2.0), 3)
    buf = io.StringIO()
    grid_to_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,y,g"
    assert len(lines) == 10
    x, y, g = (float(tok) for tok in lines[1].split(","))
    assert (x, y) == (1.0, 1.0)
    assert abs(g - 16.0) < 1e-12


# ---------------------------------------------------------------------------
# sampling helper
# ---------------------------------------------------------------------------


def test_random_instances_respect_constraints():
    rng = random.Random(7)
    inst = random_instances(rng, 100, 2)
    assert len(inst) == 200
    for params, seed in inst:
        assert params.q < params.p
        assert 1e-2 <= params.p <= 1e3 and 1e-2 <= params.q <= 1e3
        assert 1e-2 <= seed[0] <= 1e2 and 1e-2 <= seed[1] <= 1e2


def test_random_instances_deterministic_per_seed():
    a = random_instances(random.Random(3), 5, 2)
    b = random_instances(random.Random(3), 5, 2)
    assert a == b
