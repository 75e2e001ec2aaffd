"""Acceptance gate: one test per release criterion, one printed line each.

Every exact assertion is an equality of `fractions.Fraction` values; the
convergence checks are property-based (slopes and orderings, not point
values) since floating-point curves are machine-shaped near their roundoff
plateau.  Each criterion also carries a wall-clock budget.
"""

import functools
import math
import random
import time
from fractions import Fraction

from fdcorr import (
    GridFunction,
    apply,
    backward_centered,
    binom,
    centered_average_formula,
    centered_formula,
    convergence_study,
    error_series,
    flatten,
    forward_centered,
    general_defcor,
    interior_centered,
    moment_sum,
    normalize_composite,
    oracle_weights,
    product_rule_check,
    standard_backward,
    word,
)
from fdcorr.defcor import catalog


def frac(n, d=1):
    return Fraction(n, d)


def criterion(label, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"acceptance [{label}]: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"acceptance [{label}]: PASS ({elapsed:.2f}s, budget {budget_seconds}s)")
            assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s"

        return wrapper

    return decorate


CENTERED_TABLE = {
    2: frac(1, 8),
    3: frac(1, 24),
    4: frac(-18, math.factorial(4) * 2**5),
    5: frac(-18, math.factorial(5) * 2**5),
    6: frac(450, math.factorial(6) * 2**7),
    7: frac(450, math.factorial(7) * 2**7),
    8: frac(-22050, math.factorial(8) * 2**9),
    9: frac(-22050, math.factorial(9) * 2**9),
    10: frac(1786050, math.factorial(10) * 2**11),
    11: frac(1786050, math.factorial(11) * 2**11),
}

INTERIOR_TABLE = {
    1: {2: frac(9, 8), 3: frac(9, 8)},
    2: {2: frac(25, 8), 3: frac(125, 24), 4: frac(125, 128), 5: frac(125, 128)},
    3: {
        2: frac(49, 8),
        3: frac(343, 24),
        4: frac(637, 128),
        5: frac(13377, 1920),
        6: frac(1029, 1024),
        7: frac(1029, 1024),
    },
    4: {
        2: frac(81, 8),
        3: frac(243, 8),
        4: frac(1917, 128),
        5: frac(17253, 640),
        6: frac(7173, 1024),
        7: frac(64557, 7168),
        8: frac(32733, 32768),
        9: frac(32733, 32768),
    },
}

MIXED_NUMERATORS = {
    2: 1,
    3: 1,
    4: 2,
    5: -4,
    6: -12,
    7: 36,
    8: 144,
    9: -576,
    10: -2880,
    11: 14400,
}


def all_families_to_order_12():
    yield from catalog(12)


@criterion("1 coefficient tables", 1.0)
def test_criterion_1_table_reproduction():
    deriv = centered_formula(5)
    value = centered_average_formula(5)
    for i in (3, 5, 7, 9, 11):
        assert deriv.family_coefficients[i] == CENTERED_TABLE[i]
    for i in (2, 4, 6, 8, 10):
        assert value.family_coefficients[i] == CENTERED_TABLE[i]

    for p, row in INTERIOR_TABLE.items():
        d, v = interior_centered(p)
        merged = dict(v.family_coefficients)
        merged.update(d.family_coefficients)
        assert merged == row

    mixed = forward_centered(10)
    for i in range(2, 11):
        assert mixed.family_coefficients[i] == frac(
            MIXED_NUMERATORS[i], math.factorial(i)
        )
    assert mixed.error_constant == frac(14400, math.factorial(11))


@criterion("2 flat order-4/order-6 stencils", 1.0)
def test_criterion_2_flat_stencils():
    st4 = flatten(centered_formula(1))
    assert st4.offsets == (frac(-3, 2), frac(-1, 2), frac(1, 2), frac(3, 2))
    assert st4.weights == (frac(1, 24), frac(-9, 8), frac(9, 8), frac(-1, 24))

    st6 = flatten(centered_formula(2))
    base = {frac(1, 2): frac(1), frac(-1, 2): frac(-1)}
    correction = {o: w - base.get(o, frac(0)) for o, w in st6.nodes()}
    assert [correction[o] * 1920 for o in st6.offsets] == [-9, 125, -330, 330, -125, 9]


@criterion("3 moment-system oracle equivalence", 10.0)
def test_criterion_3_oracle_equivalence():
    count = 0
    for formula in all_families_to_order_12():
        st = flatten(formula)
        assert list(st.weights) == oracle_weights(st.offsets, st.m, st.order), (
            formula.label
        )
        count += 1
    assert count == 64


@criterion("4 error constants", 1.0)
def test_criterion_4_error_constants():
    # second derivative: stored constants sit on the formula side, so the
    # conventional derivative-side constants -1/12 and 1/90 appear negated
    order2 = general_defcor(2, 2, [])
    assert order2.error_constant == -frac(-1, 12)
    order4 = general_defcor(2, 4, [word(fwd=2, bwd=2)])
    assert order4.error_constant == -frac(1, 90)

    # half-point families: constants continue the coefficient sequence
    for p in range(1, 5):
        assert centered_formula(p).error_constant == CENTERED_TABLE[2 * p + 3]
        assert centered_average_formula(p).error_constant == CENTERED_TABLE[2 * p + 2]


@criterion("5 identity suites", 10.0)
def test_criterion_5_identities():
    shifts = [frac(-2), frac(-1), frac(-1, 2), frac(0), frac(1, 2), frac(1), frac(2)]
    for m in range(1, 13):
        for r in shifts:
            for p in range(1, m):
                assert moment_sum(m, r, p) == 0
            assert moment_sum(m, r, m) == math.factorial(m)

    for m in range(1, 7):
        for p in range(7):
            assert (
                sum(
                    (-1) ** j * binom(2 * m, j) * frac(m - j) ** (2 * p + 1)
                    for j in range(2 * m + 1)
                )
                == 0
            )
            assert (
                sum(
                    (-1) ** j
                    * binom(2 * m + 1, j)
                    * (frac(m - j) + frac(1, 2)) ** (2 * p)
                    for j in range(2 * m + 2)
                )
                == 0
            )
            assert (
                sum(
                    (-1) ** j
                    * binom(2 * m, j)
                    * (
                        (frac(m - j) + frac(1, 2)) ** (2 * p + 1)
                        + (frac(m - j) - frac(1, 2)) ** (2 * p + 1)
                    )
                    for j in range(2 * m + 1)
                )
                == 0
            )

    # discrete product rule on randomized rational grids
    rng = random.Random(20260808)
    instances = 0
    for m in (1, 2, 3):
        for _ in range(35):
            f = GridFunction(
                {
                    i: frac(rng.randint(-9, 9), rng.randint(1, 9))
                    for i in range(-m, m + 1)
                }
            )
            g = GridFunction(
                {
                    i: frac(rng.randint(-9, 9), rng.randint(1, 9))
                    for i in range(-m, m + 1)
                }
            )
            k = frac(rng.randint(1, 5), rng.randint(1, 5))
            lhs, rhs = product_rule_check(m, f, g, 0, k)
            assert lhs == rhs
            instances += 1
    assert instances >= 100

    # re-anchoring of even one-sided words
    cases = {
        (1, 3): ((2, 2), frac(-1)),
        (0, 4): ((2, 2), frac(-2)),
        (2, 0): ((1, 1), frac(1)),
    }
    for (fwd, bwd), ((nf, nb), delta) in cases.items():
        normalized, got_delta = normalize_composite(word(fwd=fwd, bwd=bwd))
        assert (normalized.p_fwd, normalized.p_bwd) == (nf, nb)
        assert got_delta == delta
    u = GridFunction({i: frac((2 * i - 1) ** 3, 8) for i in range(-6, 7)})
    for fwd, bwd in ((1, 3), (0, 4), (2, 0), (3, 1)):
        expr = word(fwd=fwd, bwd=bwd)
        normalized, _ = normalize_composite(expr)
        assert apply(expr, u, 0, frac(1, 2)) == apply(normalized, u, 0, frac(1, 2))


@criterion("6 oscillatory convergence study", 5.0)
def test_criterion_6_convergence_study():
    stencils = {
        fid: flatten(formula)
        for fid, formula in (
            ("B6", standard_backward(6)),
            ("B10", standard_backward(10)),
            ("BC6", backward_centered(6)),
            ("BC10", backward_centered(10)),
            ("IC6", interior_centered(2)[0]),
            ("IC10", interior_centered(4)[0]),
        )
    }
    for omega, h_top in ((100 * math.pi, 1e-3), (1000 * math.pi, 1e-4)):
        u = lambda x: math.sin(omega * x)
        du0 = omega  # derivative of sin(omega x) at x = 0
        shared = [h_top * 2.0**-j for j in range(11)]
        reports = {
            fid: convergence_study(st, u, du0, 0.0, shared, formula_id=fid)
            for fid, st in stencils.items()
        }

        # every curve reaches a floor below 1e-10 * |u'(0)| on the shared grid
        for fid, report in reports.items():
            assert report.min_error() < 1e-10 * du0, (fid, report.min_error())

        # fitted orders, each inside its own pre-floor window; the plain
        # backward order-10 curve needs quarter-octave spacing inside its
        # narrow asymptotic band (its error constant is 252x the
        # backward-centered one, so its clean range is short)
        for fid, target in (
            ("B6", 6),
            ("BC6", 6),
            ("IC6", 6),
            ("BC10", 10),
            ("IC10", 10),
        ):
            fitted = reports[fid].fitted_order()
            assert abs(fitted - target) <= 0.2, (fid, fitted)
        band = [h_top * 2.0 ** (-(13 + j) / 8) for j in range(4)]
        b10 = convergence_study(stencils["B10"], u, du0, 0.0, band, formula_id="B10")
        assert abs(b10.fitted_order() - 10) <= 0.2, b10.fitted_order()

        # smaller error constant wins: backward-centered under plain backward
        # at every shared spacing before either floor
        shared_prefloor = min(
            reports["BC10"].roundoff_floor_index,
            reports["B10"].roundoff_floor_index,
        )
        assert shared_prefloor >= 3
        for i in range(shared_prefloor):
            assert reports["BC10"].abs_errors[i] <= reports["B10"].abs_errors[i]


@criterion("7 backward-series sign guard", 1.0)
def test_criterion_7_backward_series_guard():
    # the backward quotient expands with alternating signs: any source
    # writing its j-th term with a non-alternating factor is inconsistent
    # with the node expansion, which these values pin down
    series = error_series(word(bwd=1), 4)
    assert series.coefficient(2) == frac(-1, 2)
    assert series.coefficient(3) == frac(1, 6)
    for m in (1, 2, 3):
        got = error_series(word(bwd=m), m + 4)
        for i in range(m + 1, m + 5):
            closed = sum(
                (-1) ** j * binom(m, j) * frac(-j) ** i for j in range(m + 1)
            ) / math.factorial(i)
            assert got.coefficient(i) == closed
