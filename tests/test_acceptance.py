"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints exactly one line "criterion NN: PASS/FAIL - detail" and then
asserts.  Criteria asserting fixed thresholds are stated literally; measured
values appear in the detail line so a failure documents itself.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from lyness import certifier, dynamics
from lyness.certifier import (
    certify_q1,
    delta2_denominator,
    landmark_counts,
    proportionality_constant,
    run_full_certificate,
    verify_delta1_identity,
)
from lyness.dynamics import (
    classify_regions,
    random_instances,
    simulate,
    stability_from_ua,
)
from lyness.exactalg import Poly, mono_text
from lyness.model import (
    ParamsPQ,
    build_symbolic_model,
    eval_delta,
    lyness_invariance_check,
    lyness_orbit,
)


def _line(n: int, ok: bool, detail: str) -> str:
    text = f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(text)
    return text


def _clear_symbolic_caches():
    """Drop the model and every certifier cache, so a replay starts cold."""
    build_symbolic_model.cache_clear()
    for value in vars(certifier).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture(scope="module")
def sweep():
    """Criterion 7's orbit collection, shared by criteria 8 and 10."""
    batch = random_instances(random.Random(74), 100, 3)
    t0 = time.perf_counter()
    records = dynamics.sweep(batch, tol=1e-8, max_iters=10**6)
    return records, time.perf_counter() - t0


def test_criterion_01_one_step_identity():
    _clear_symbolic_caches()
    t0 = time.perf_counter()
    report = verify_delta1_identity()
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.output_count == 0 and elapsed < 5.0
    detail = (f"one-step difference equals its factored closed form exactly "
              f"(cross-difference monomials: {report.output_count}, "
              f"{elapsed:.2f}s < 5s)")
    assert ok, _line(1, ok, detail)
    _line(1, ok, detail)


def test_criterion_02_two_step_structure():
    counts = landmark_counts()
    num_n = counts["delta2Numerator"]
    shift_n = counts["eq16"]
    sector_n = counts["eq17"]
    const = proportionality_constant(build_symbolic_model().delta2.den,
                                     delta2_denominator())
    parts = [
        (f"two-step numerator monomials {num_n} >= 386", num_n >= 386),
        ("denominator equals displayed product up to a positive constant "
         f"(constant {const})", const is not None and const > 0),
        (f"corner-shift monomials {shift_n} >= 287", shift_n >= 287),
        (f"sector-expansion monomials {sector_n} >= 368", sector_n >= 368),
        ("golden counts stable",
         counts == {"delta2Numerator": 277, "eq16": 233, "eq17": 371}),
    ]
    ok = all(flag for _, flag in parts)
    detail = "; ".join(f"{'ok' if flag else 'NOT MET'}: {text}"
                       for text, flag in parts)
    assert ok, _line(2, ok, detail)
    _line(2, ok, detail)


def test_criterion_03_full_certificate_replay():
    _clear_symbolic_caches()
    t0 = time.perf_counter()
    summary = run_full_certificate()
    elapsed = time.perf_counter() - t0
    integer_ok = all(c.denominator == 1 for r in summary.reports if r.step.startswith("q1-")
                     for c in r.expansion.terms.values())
    positive_ok = all(r.passed and
                      (r.min_coefficient is None or r.min_coefficient > 0)
                      for r in summary.reports)
    ok = summary.overall_pass and positive_ok and integer_ok and elapsed < 60.0
    detail = (f"{len(summary.reports)} steps, all minimum coefficients "
              f"positive, sector expansions integer, {elapsed:.2f}s < 60s")
    assert ok, _line(3, ok, detail)
    _line(3, ok, detail)


def test_criterion_04_negative_control():
    reports = certify_q1(u_image=1 - Poly.var("t"))
    failing = [r for r in reports if not r.passed and r.witness is not None]
    ok = len(failing) >= 1 and all(
        r.expansion.coefficient(r.witness) == r.min_coefficient < 0
        for r in failing)
    sample = failing[0] if failing else None
    detail = (f"{len(failing)}/{len(reports)} sector steps fail under the "
              f"inverted positivity assumption; example witness "
              f"{mono_text(sample.witness)} with coefficient "
              f"{sample.min_coefficient}" if sample else "no failing report")
    assert ok, _line(4, ok, detail)
    _line(4, ok, detail)


def test_criterion_05_exact_invariance():
    rng = random.Random(55)
    checks = 0
    ok = True
    for alpha_tilde in (Fraction(1), Fraction(2), Fraction(7, 3)):
        for _ in range(20):
            seed = (Fraction(rng.randint(1, 12), rng.randint(1, 6)),
                    Fraction(rng.randint(1, 12), rng.randint(1, 6)))
            ok = ok and lyness_invariance_check(alpha_tilde, seed, 100)
            checks += 1
    orbit = lyness_orbit(Fraction(1), (Fraction(1), Fraction(1)), 10)
    period5 = all(orbit[k + 5] == orbit[k] for k in range(len(orbit) - 5))
    ok = ok and period5
    detail = (f"invariant exactly constant along {checks} random orbits of "
              f"100 exact steps; seed (1,1) has exact period 5")
    assert ok, _line(5, ok, detail)
    _line(5, ok, detail)


def test_criterion_06_sampled_sign_lemmas():
    rng = random.Random(20260814)
    checked = violations = 0
    while checked < 10_000:
        u = 1 + Fraction(rng.randint(1, 40), rng.randint(1, 8))
        a = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        mode = checked % 5

        def below():
            return u * Fraction(rng.randint(1, 20), 21)

        def at_least():
            return u + Fraction(rng.randint(0, 30), rng.randint(1, 6))

        if mode == 0:
            x, y = at_least(), at_least()
        elif mode == 1:
            x, y = below(), at_least()
        elif mode == 2:
            x, y = below(), below()
        elif mode == 3:
            x, y = at_least(), below()
        else:
            x, y = (u, at_least()) if rng.random() < 0.5 else (below(), u)
        if (x, y) == (u, u):
            continue
        point = (x, y, u, a)
        if (x <= u <= y) or (y <= u <= x):
            if not eval_delta(1, point) > 0:
                violations += 1
        if (x >= u and y >= u) or (x <= u and y <= u):
            if not eval_delta(2, point) > 0:
                violations += 1
        checked += 1
    ok = violations == 0
    detail = (f"{checked} exact tuples: one-step drop positive on the mixed "
              f"quadrants, two-step drop positive on the matched quadrants; "
              f"{violations} violations")
    assert ok, _line(6, ok, detail)
    _line(6, ok, detail)


def test_criterion_07_convergence_sweep(sweep):
    records, elapsed = sweep
    failures = [(r.params, r.seed) for r in records if not r.trace.converged]
    showcase = simulate(ParamsPQ(20, 4), (1.0, 2.0), tol=1e-9, max_iters=10**6)
    limit = 0.5 * (3.0 + math.sqrt(89.0))
    showcase_ok = showcase.converged and abs(showcase.states[-1][2] - limit) < 1e-9
    ok = not failures and showcase_ok and elapsed < 60.0
    detail = (f"{len(records)} orbits all within 1e-8 of the equilibrium "
              f"({elapsed:.2f}s < 60s); showcase instance reaches "
              f"{showcase.states[-1][2]:.9f} within 1e-9")
    assert ok, _line(7, ok, detail)
    _line(7, ok, detail)


def test_criterion_08_descent_along_sweep(sweep):
    records, _ = sweep
    violations = []
    total_checked = total_skipped = total_exact = 0
    for r in records:
        total_checked += r.descent.checked
        total_skipped += r.descent.skipped_near_equilibrium
        total_exact += r.descent.decided_exactly
        if not r.descent.ok:
            violations.append((r.params, r.seed, r.descent.violation))
    ok = not violations
    detail = (f"min of the next two invariant values drops strictly below the "
              f"current one at every step decided; "
              f"{total_checked} steps checked ({total_exact} decided exactly), "
              f"{total_skipped} left undecided next to the equilibrium, "
              f"{len(violations)} violations")
    assert ok, _line(8, ok, detail)
    _line(8, ok, detail)
    # the shifted float screen decides every one of these steps, so none is
    # skipped or decided exactly; a step is skipped only where the screen
    # cannot accept it next to the fixed point
    assert (total_checked, total_skipped, total_exact) == (190327, 0, 0)


def test_criterion_09_region_classifier():
    expected = {
        (20, 4): frozenset(),
        (1, 2): frozenset("abcd"),
        (3, 3): frozenset("abcde"),
    }
    got = {pq: classify_regions(ParamsPQ(*pq)).flags for pq in expected}
    point_parts = [
        (f"({p},{q}) -> {''.join(sorted(got[(p, q)])) or '(none)'} "
         f"(required {''.join(sorted(expected[(p, q)])) or '(none)'})",
         got[(p, q)] == expected[(p, q)])
        for p, q in expected
    ]

    def regions_direct(p, q):
        flags = set()
        if q >= p:
            flags.add("a")
        if 2 * (q + 1) >= p:
            flags.add("b")
        if q > 1:
            if 2 * (q**3 - q**2 + q + math.sqrt(q**4 - 1) - 1) / (q - 1) ** 2 >= p:
                flags.add("c")
            if 0.5 * (q - 1 + math.sqrt((q - 1) ** 2 + 4 * p)) <= (q * q + 1) / (q - 1):
                flags.add("d")
        if 4 * p * (q - 1) ** 2 <= 25:
            flags.add("e")
        return frozenset(flags)

    rng = random.Random(63)
    agree = all(
        classify_regions(ParamsPQ(p, q)).flags == regions_direct(p, q)
        for p, q in ((math.exp(rng.uniform(math.log(1e-2), math.log(1e3))),
                      math.exp(rng.uniform(math.log(1e-2), math.log(1e3))))
                     for _ in range(50)))
    parts = point_parts + [("50 random points agree with an independent "
                            "re-implementation", agree)]
    ok = all(flag for _, flag in parts)
    detail = "; ".join(f"{'ok' if flag else 'NOT MET'}: {text}"
                       for text, flag in parts)
    assert ok, _line(9, ok, detail)
    _line(9, ok, detail)


def test_criterion_10_local_stability(sweep):
    records, _ = sweep
    radii = [r.stability.spectral_radius for r in records]
    all_stable = all(0.0 < r < 1.0 for r in radii)
    reference = stability_from_ua(2.0, 1.0).spectral_radius
    ref_ok = abs(reference - math.sqrt(2.0 / 3.0)) < 1e-12
    ok = all_stable and ref_ok
    detail = (f"spectral radius < 1 on all {len(radii)} sweep instances "
              f"(max {max(radii):.6f}); reference point radius matches "
              f"sqrt(2/3) within 1e-12")
    assert ok, _line(10, ok, detail)
    _line(10, ok, detail)
