"""Float evaluation, exact evaluation, and convergence-study mechanics."""

import math
import random
import struct
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from fdcorr import (
    ConvergenceReport,
    Stencil,
    apply_stencil,
    centered_formula,
    convergence_studies,
    flatten,
    general_defcor,
    oracle_weights,
    standard_backward,
    standard_forward,
)
from fdcorr import numdiff
from fdcorr.cli import formula_from_id
from fdcorr.defcor import catalog

C4 = flatten(centered_formula(1))
B6 = flatten(standard_backward(6))
SECOND = flatten(general_defcor(2, 2, []))
# classical integer-offset central difference, built from the moment solver
CENTRAL = Stencil(
    m=1,
    order=2,
    offsets=(Fraction(-1), Fraction(0), Fraction(1)),
    weights=tuple(oracle_weights([-1, 0, 1], 1)),
    error_constant=Fraction(1, 6),
    provenance="central",
)


class TestApplyStencil:
    def test_central_difference_on_even_function_at_origin(self):
        value = apply_stencil(CENTRAL, lambda x: x * x, 0.0, 0.1)
        assert abs(value) < 1e-15

    def test_second_difference_on_quadratic(self):
        value = apply_stencil(SECOND, lambda x: 3.0 * x * x, 1.0, 0.01)
        assert abs(value - 6.0) < 1e-9

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            apply_stencil(CENTRAL, math.sin, 0.0, 0.0)

    def test_nonfinite_sample_warns_and_propagates(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = apply_stencil(C4, lambda x: math.inf if x > 0 else 0.0, 0.0, 0.5)
        assert not math.isfinite(value)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "nonfinite sample inf at x = 0.25 (offset 1/2)"),
            (RuntimeWarning, "nonfinite sample inf at x = 0.75 (offset 3/2)"),
        ]
        assert {w.filename for w in caught} == {__file__}

    @pytest.mark.parametrize(
        "x0, h, message",
        [
            (0.3, math.nan, "spacing h must be finite, got nan"),
            (0.3, math.inf, "spacing h must be finite, got inf"),
            (Fraction(1, 3), math.nan, "spacing h must be finite, got nan"),
            (math.nan, 0.1, "x0 must be finite, got nan"),
            (-math.inf, Fraction(1, 8), "x0 must be finite, got -inf"),
            (0.3, -math.inf, "spacing h must be positive"),
        ],
    )
    def test_nonfinite_point_or_spacing_raises_before_sampling(self, x0, h, message):
        calls = []

        def f(x):
            calls.append(x)
            return math.sin(x)

        with pytest.raises(ValueError, match=f"^{message}$"):
            apply_stencil(C4, f, x0, h)
        assert calls == []

    def test_determinism(self):
        st = flatten(standard_backward(6))
        f = lambda x: math.sin(100 * math.pi * x)
        runs = {apply_stencil(st, f, 0.0, 1e-3) for _ in range(5)}
        assert len(runs) == 1


class TestApplyStencilExact:
    def test_lead_monomial_gives_factorial_scaled_derivative(self):
        # fourth derivative of t**4 is 24 everywhere
        st = flatten(general_defcor(4, 2, []))
        assert apply_stencil(st, lambda t: t**4, 0, 1) == 24

    @pytest.mark.parametrize(
        "st", [C4, SECOND, flatten(standard_forward(4))], ids=lambda s: s.provenance
    )
    def test_polynomial_exactness_below_order_bound(self, st):
        x0 = Fraction(3, 7)
        h = Fraction(1, 5)
        for r in range(st.m + st.order):
            def monomial(t, r=r):
                return t**r

            exact = (
                math.factorial(r)
                // math.factorial(r - st.m)
                * x0 ** (r - st.m)
                if r >= st.m
                else Fraction(0)
            )
            assert apply_stencil(st, monomial, x0, h) == exact

    def test_float_mode_matches_exact_scale(self):
        # float error stays far below the computation's own magnitude
        for st in (C4, flatten(standard_backward(6))):
            for h in (1e-3, 1e-2, 0.1, 1.0):
                x0 = 0.618
                for r in range(st.m + st.order):
                    f = lambda x: x**r
                    got = apply_stencil(st, f, x0, h)
                    exact = (
                        math.factorial(r) / math.factorial(r - st.m) * x0 ** (r - st.m)
                        if r >= st.m
                        else 0.0
                    )
                    scale = sum(
                        abs(float(w)) * abs(f(x0 + float(o) * h))
                        for o, w in st.nodes()
                    ) / h**st.m
                    assert abs(got - exact) <= 1e-12 * max(scale, abs(exact))

    @pytest.mark.parametrize(
        "x0, h", [(0, 1), (Fraction(1, 3), Fraction(1, 100)), (2, Fraction(1, 7))]
    )
    def test_int_or_rational_inputs_give_a_fraction(self, x0, h):
        value = apply_stencil(C4, lambda t: t**3, x0, h)
        assert type(value) is Fraction
        assert value == 3 * Fraction(x0) ** 2

    def test_order_zero_stencil_with_exact_inputs_gives_a_fraction(self):
        st = flatten(formula_from_id("CA4"))
        assert st.m == 0
        value = apply_stencil(st, lambda t: t**3, Fraction(1, 3), Fraction(1, 10))
        assert type(value) is Fraction and value == Fraction(1, 27)

    def test_exact_samples_beyond_float_range_do_not_warn(self):
        big = Fraction(10**400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = apply_stencil(C4, lambda t: big + t, 0, 1)
        assert value == 1

    def test_float_inputs_match_the_ascending_float_sum(self):
        st = flatten(standard_backward(6))
        f = lambda x: math.sin(100 * math.pi * x)
        x0, h = 0.1234, 3e-4
        total = 0.0
        for o, w in st.nodes():
            total += float(w) * f(x0 + float(o) * h)
        assert apply_stencil(st, f, x0, h) == total / h**st.m

    @settings(max_examples=200, deadline=None)
    @given(
        m=hs.integers(0, 3),
        offsets=hs.lists(
            hs.fractions(min_value=-8, max_value=8, max_denominator=15),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        data=hs.data(),
        x0=hs.floats(-2.0, 2.0),
        h=hs.floats(1e-6, 1.0),
    )
    def test_float_path_matches_the_ascending_float_sum_on_random_stencils(
        self, m, offsets, data, x0, h
    ):
        weights = data.draw(
            hs.lists(
                hs.fractions(max_denominator=10**12).filter(lambda w: w != 0),
                min_size=len(offsets),
                max_size=len(offsets),
            )
        )
        st = Stencil(
            m=m,
            order=1,
            offsets=tuple(sorted(offsets)),
            weights=tuple(weights),
            error_constant=Fraction(0),
        )
        total = 0.0
        for o, w in st.nodes():
            total += float(w) * math.sin(x0 + float(o) * h)
        expected = total / h**m
        # the first call converts the stencil, the second reuses it
        assert apply_stencil(st, math.sin, x0, h) == expected
        assert apply_stencil(st, math.sin, x0, h) == expected

    def test_float_point_with_rational_spacing_takes_the_float_path(self):
        seen = []

        def f(x):
            seen.append(type(x))
            return math.exp(x)

        value = apply_stencil(C4, f, 0.25, Fraction(1, 8))
        assert type(value) is float and set(seen) == {float}
        assert value == apply_stencil(C4, math.exp, 0.25, 0.125)


def test_every_error_constant_to_order_30_shows_through_evaluation():
    """``Q(u)(x0) - u^(m)(x0) == C h**q`` exactly for ``u = t**(m+q) / (m+q)!``.

    ``u``'s only derivative past ``u^(m)`` that the stencil sees is
    ``u^(m+q) = 1``, so the evaluation error is the error constant's term
    alone.  The sum runs through ``exactmath.node_sum``, not the moment sums
    that ``verify`` and the engine use.
    """
    x0, h = Fraction(1, 3), Fraction(1, 7)
    wrong = []
    formulas = list(catalog(30))
    for formula in formulas:
        q, n = formula.order, formula.m + formula.order
        value = apply_stencil(flatten(formula), lambda t: t**n / math.factorial(n), x0, h)
        if value - x0**q / math.factorial(q) != formula.error_constant * h**q:
            wrong.append(formula.label)
    assert len(formulas) == 172 and wrong == []


class TestConvergenceStudy:
    def test_requires_three_decreasing_spacings(self):
        f = math.sin
        with pytest.raises(ValueError):
            convergence_studies([("C4", C4)], f, 1.0, 0.0, [0.1, 0.05])
        with pytest.raises(ValueError):
            convergence_studies([("C4", C4)], f, 1.0, 0.0, [0.1, 0.1, 0.05])
        with pytest.raises(ValueError, match="spacing h must be positive"):
            convergence_studies([("C4", C4)], f, 1.0, 0.0, [0.1, 0.0, -0.1])

    @pytest.mark.parametrize(
        "x0, spacings, message, df_true",
        [
            (0.0, [1e-2, math.nan, 1e-3, 1e-4], "spacing h must be finite, got nan", 1.0),
            (0.0, [math.inf, 1e-2, 1e-3], "spacing h must be finite, got inf", 1.0),
            (math.nan, [1e-2, 1e-3, 1e-4], "x0 must be finite, got nan", 1.0),
            (math.inf, [1e-2, 1e-3, 1e-4], "x0 must be finite, got inf", 1.0),
            (0.0, [1e-2, 1e-3, -math.inf], "spacing h must be positive", 1.0),
            (0.0, [1e-2, 1e-3, 1e-4], "df_true must be finite, got nan", math.nan),
            (0.0, [1e-2, 1e-3, 1e-4], "df_true must be finite, got inf", math.inf),
            (0.0, [1e-2, 1e-3, 1e-4], "df_true must be finite, got -inf", -math.inf),
        ],
    )
    def test_nonfinite_point_or_spacing_raises_before_sampling(
        self, x0, spacings, message, df_true
    ):
        calls = []

        def f(x):
            calls.append(x)
            return math.sin(x)

        with pytest.raises(ValueError, match=f"^{message}$"):
            convergence_studies([("C4", C4), ("B6", B6)], f, df_true, x0, spacings)
        with pytest.raises(ValueError, match=f"^{message}$"):
            convergence_studies([("C4", C4)], f, df_true, x0, spacings)
        assert calls == []

    def test_sixth_order_backward_on_oscillatory_function(self):
        st = flatten(standard_backward(6))
        omega = 100 * math.pi
        grid = [1e-3 * 2.0**-j for j in range(9)]
        (report,) = convergence_studies(
            [("B6", st)], lambda x: math.sin(omega * x), omega, 0.0, grid
        )
        assert abs(report.fitted_order() - 6) <= 0.2
        assert report.roundoff_floor_index <= len(grid)

    def test_pairwise_orders_match_definition(self):
        st = flatten(standard_backward(6))
        omega = 100 * math.pi
        grid = [1e-3, 5e-4, 2.5e-4]
        f = lambda x: math.sin(omega * x)
        (report,) = convergence_studies([("B6", st)], f, omega, 0.0, grid)
        e, h = report.abs_errors, report.spacings
        for i in range(2):
            expected = math.log(e[i] / e[i + 1]) / math.log(h[i] / h[i + 1])
            assert report.observed_orders[i] == pytest.approx(expected)

    def test_polynomial_exactness_floors_everything(self):
        (report,) = convergence_studies(
            [("C4", C4)], lambda x: x**3, 0.0, 0.0, [0.1, 0.05, 0.025]
        )
        assert max(report.abs_errors) < 1e-12

    def test_exactly_zero_errors_give_no_fit(self):
        # binary-exact weights and an even integrand cancel to exactly zero
        (report,) = convergence_studies(
            [("central", CENTRAL)], lambda x: x * x, 0.0, 0.0, [0.5, 0.25, 0.125]
        )
        assert report.abs_errors == (0.0, 0.0, 0.0)
        assert math.isnan(report.fitted_order())

    def test_error_turning_infinite_gives_order_minus_inf(self):
        # the last error is inf, so e0 / e1 is 0, whose log is undefined
        f = lambda x: math.inf if 0 < x < 0.2 else math.sin(x)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (report,) = convergence_studies([("C4", C4)], f, 1.0, 0.0, [1.0, 0.5, 0.25])
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "nonfinite sample inf at x = 0.125 (offset 1/2)"),
        ]
        assert {w.filename for w in caught} == {__file__}
        assert report.abs_errors[-1] == math.inf
        assert report.observed_orders[-1] == -math.inf
        assert math.isnan(report.fitted_order())

    def test_each_node_is_converted_to_float_at_most_once(self):
        conversions = Counter()

        class CountingFraction(Fraction):
            def __float__(self):
                conversions[id(self)] += 1
                return super().__float__()

        counted = Stencil(
            m=C4.m,
            order=C4.order,
            offsets=tuple(CountingFraction(o) for o in C4.offsets),
            weights=tuple(CountingFraction(w) for w in C4.weights),
            error_constant=C4.error_constant,
            provenance=C4.provenance,
        )
        omega = 100 * math.pi
        f = lambda x: math.sin(omega * x)
        grid = [1e-3 * 2.0**-j for j in range(12)]
        (report,) = convergence_studies([("C4", counted)], f, omega, 0.1, grid)
        assert len(conversions) == 2 * len(C4.offsets)
        assert max(conversions.values()) == 1
        assert [report] == list(convergence_studies([("C4", C4)], f, omega, 0.1, grid))

    def test_fit_window_spans_clean_monotone_grid(self):
        st = flatten(standard_backward(6))
        grid = [0.4, 0.2, 0.1]
        (report,) = convergence_studies([("B6", st)], math.sin, 1.0, 0.0, grid)
        assert report.fit_window() == [0, 1, 2]

    @given(
        totals=hs.lists(
            hs.one_of(
                hs.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                hs.sampled_from([0.0, math.inf, math.nan]),
            ),
            min_size=3,
            max_size=12,
        ),
        ratio=hs.floats(1.001, 16.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_fit_window_never_runs_past_the_roundoff_floor(self, totals, ratio):
        # built as a study builds it: m = 0 and df_true = 0.0 make the errors the totals
        spacings = tuple(ratio**-i for i in range(len(totals)))
        log_steps = [math.log(a / b) for a, b in zip(spacings, spacings[1:])]
        report = numdiff._report("x", 0, totals, 0.0, spacings, log_steps)
        assert report.fit_window() == fit_window_stopped_at_the_floor(report)


def fit_window_stopped_at_the_floor(report):
    """``fit_window`` with an explicit stop at ``min(plateau_start, roundoff_floor_index)``."""
    positive = [e for e in report.abs_errors if e > 0.0]
    if not positive:
        return []
    n = len(report.abs_errors)
    plateau_start = n
    for i in range(1, n):
        if report.abs_errors[i] == 0.0 or not report.observed_orders[i - 1] >= 1.0:
            plateau_start = i
            break
    if plateau_start == n:
        return list(range(n))
    stop = min(plateau_start, report.roundoff_floor_index)
    guard = 50.0 * min(positive)
    return [i for i in range(stop) if report.abs_errors[i] >= guard]


# the ``study`` benchmark's 48 ids: every id of order <= 10
STUDY_IDS = [f"{prefix}{order}" for prefix in ("B", "F", "BC", "FC") for order in range(2, 11)]
STUDY_IDS += [f"{prefix}{order}" for prefix in ("C", "CA", "IC") for order in range(4, 11, 2)]


def reference_report(formula_id, s, f, df_true, x0, spacings):
    """The report as one stencil on its own gives it: an ascending float sum per spacing."""
    errors = []
    for h in spacings:
        total = 0.0
        for o, w in s.nodes():
            total += float(w) * f(x0 + float(o) * h)
        errors.append(abs(total / h**s.m - df_true))
    orders = []
    for i in range(len(spacings) - 1):
        e0, e1 = errors[i], errors[i + 1]
        if e0 <= 0.0 or e1 <= 0.0:
            orders.append(math.inf if e1 == 0.0 and e0 > 0.0 else math.nan)
        else:
            orders.append(math.log(e0 / e1) / math.log(spacings[i] / spacings[i + 1]))
    floor = len(errors)
    for i in range(1, len(errors)):
        if errors[i] > 2.0 * errors[i - 1]:
            floor = i
            break
    return ConvergenceReport(formula_id, tuple(spacings), tuple(errors), tuple(orders), floor)


def bits(values):
    return [struct.pack("<d", v) for v in values]


class TestConvergenceStudies:
    def test_samples_each_distinct_node_once_per_spacing(self):
        named = [(fid, flatten(formula_from_id(fid))) for fid in STUDY_IDS]
        assert sum(len(s.offsets) for _, s in named) == 326
        assert len({o for _, s in named for o in s.offsets}) == 31
        calls = Counter()
        omega = 100 * math.pi

        def u(x):
            calls[x] += 1
            return math.sin(omega * x)

        grid = [1e-3 * 2.0**-j for j in range(12)]
        reports = list(convergence_studies(named, u, omega, 0.1, grid))
        assert sum(calls.values()) == 31 * 12
        assert [r.formula_id for r in reports] == STUDY_IDS
        assert all(r.spacings is reports[0].spacings for r in reports)

    @settings(max_examples=150, deadline=None)
    @given(
        pool=hs.lists(
            hs.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        data=hs.data(),
        x0=hs.floats(-2.0, 2.0),
        h0=hs.floats(1e-4, 1.0),
        factor=hs.floats(1.01, 4.0),
        count=hs.integers(3, 8),
        omega=hs.floats(0.1, 400.0),
    )
    def test_batch_equals_each_stencil_alone_bitwise(
        self, pool, data, x0, h0, factor, count, omega
    ):
        named = []
        for k in range(data.draw(hs.integers(1, 6))):
            offsets = data.draw(hs.lists(hs.sampled_from(pool), min_size=1, unique=True))
            weights = data.draw(
                hs.lists(
                    hs.fractions(max_denominator=10**6).filter(lambda w: w != 0),
                    min_size=len(offsets),
                    max_size=len(offsets),
                )
            )
            st = Stencil(
                m=data.draw(hs.integers(0, 3)),
                order=1,
                offsets=tuple(sorted(offsets)),
                weights=tuple(weights),
                error_constant=Fraction(0),
            )
            named.append((f"s{k}", st))
        f = lambda x: math.sin(omega * x)
        spacings = [h0 / factor**i for i in range(count)]
        df_true = omega * math.cos(omega * x0)
        reports = list(convergence_studies(named, f, df_true, x0, spacings))
        assert len(reports) == len(named)
        for (formula_id, st), got in zip(named, reports):
            want = reference_report(formula_id, st, f, df_true, x0, spacings)
            assert got.formula_id == want.formula_id
            assert got.spacings == want.spacings
            assert bits(got.abs_errors) == bits(want.abs_errors)
            assert bits(got.observed_orders) == bits(want.observed_orders)
            assert got.roundoff_floor_index == want.roundoff_floor_index

    def test_nonfinite_sample_warns_once_per_stencil_node_and_spacing(self):
        half = Stencil(
            m=1,
            order=2,
            offsets=(Fraction(-1, 2), Fraction(1, 2)),
            weights=(Fraction(-1), Fraction(1)),
            error_constant=Fraction(1, 24),
        )
        f = lambda x: math.inf if x == 0.5 else math.sin(x)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = list(
                convergence_studies([("C4", C4), ("half", half)], f, 1.0, 0.0, [1.0, 0.5, 0.25])
            )
        # offset 1/2 at spacing 1 is the one sample at 0.5; both stencils use it
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "nonfinite sample inf at x = 0.5 (offset 1/2)"),
        ] * 2
        assert {w.filename for w in caught} == {__file__}
        for report in reports:
            assert report.abs_errors[0] == math.inf
            assert all(map(math.isfinite, report.abs_errors[1:]))

    def test_offsets_that_sample_one_point_raise(self):
        # at x0 = 1 a gap of 1e-16 is below the rounding of x0 + o*h alone, about 2.2e-16
        with pytest.raises(ValueError, match=(
            r"^offsets -3/2 and -1/2 may round to one point at x0 = 1\.0 and spacing h = 1e-16$"
        )):
            convergence_studies([("C4", C4)], math.sin, math.cos(1.0), 1.0, [1e-3, 1e-8, 1e-16])
        with pytest.raises(ValueError, match=(
            r"^offsets -3/2 and -1/2 may round to one point at x0 = 1e\+300 and spacing h = 0\.01$"
        )):
            convergence_studies([("C4", C4)], math.sin, 1.0, 1e300, [0.04, 0.02, 0.01])
        # one evaluation is not a study: apply_stencil sums whatever its nodes sample
        assert math.isfinite(apply_stencil(C4, math.sin, 1.0, 1e-16))
        assert math.isfinite(apply_stencil(C4, math.sin, 1e300, 0.01))

    def test_a_refused_study_calls_its_sample_function_zero_times(self):
        calls = []
        with pytest.raises(ValueError, match="may round to one point"):
            convergence_studies([("C4", C4), ("B6", B6)], lambda x: calls.append(x) or 0.0,
                                1.0, 1.0, [1e-3, 1e-8, 1e-16])
        assert calls == []

    def test_repeated_ids_keep_their_order_and_count(self):
        f = math.sin
        named = [("C4", C4), ("central", CENTRAL), ("C4", C4), ("C4", C4)]
        reports = list(convergence_studies(named, f, 1.0, 0.3, [0.1, 0.05, 0.025]))
        assert [r.formula_id for r in reports] == ["C4", "central", "C4", "C4"]
        assert reports[0] == reports[2] == reports[3]
        alone = convergence_studies([("C4", C4)], f, 1.0, 0.3, [0.1, 0.05, 0.025])
        assert reports[:1] == list(alone)


def scan_refuses(offsets, x0, spacings):
    """The per-spacing scan the rule replaced: do neighbouring float offsets meet at any spacing?"""
    floats = sorted({float(o) for o in offsets})
    return any(not x0 + a * h < x0 + b * h for h in spacings for a, b in zip(floats, floats[1:]))


def rule_refuses(offsets, x0, h):
    try:
        numdiff._require_resolution(offsets, x0, h)
    except ValueError:
        return True
    return False


C4_OFFSETS = [Fraction(k, 2) for k in (-3, -1, 1, 3)]
ADVERSARIAL_X0 = [1 - 2**-53, -(1 - 2**-53), 1e300, -1e300, 5e-324, -5e-324, 0.0]


@hs.composite
def resolution_requests(draw):
    """Offsets ``k/d``, a point and a grid whose smallest spacing is near where points meet."""
    offsets = draw(hs.lists(hs.builds(Fraction, hs.integers(-24, 24), hs.sampled_from([1, 2, 3, 7])),
                            min_size=2, max_size=8, unique=True))
    x0 = draw(hs.sampled_from(ADVERSARIAL_X0) | hs.floats(-1e300, 1e300))
    subnormal = hs.floats(5e-324, 2.0**-1022, exclude_max=True)
    h = draw(subnormal | hs.floats(1e-2, 1e2).map(lambda scale: math.ulp(x0) * scale))
    factor, count = draw(hs.floats(1.0, 8.0)), draw(hs.integers(1, 12))
    spacings = [h * factor**j for j in reversed(range(count))]
    assume(all(math.isfinite(x0 + float(o) * s) for o in offsets for s in spacings))
    return offsets, x0, spacings


class TestResolutionRule:
    @settings(max_examples=400, deadline=None)
    @given(request=resolution_requests())
    def test_the_rule_refuses_whatever_the_scan_refuses(self, request):
        offsets, x0, spacings = request
        assert rule_refuses(offsets, x0, spacings[-1]) or not scan_refuses(offsets, x0, spacings)

    @pytest.mark.parametrize(
        "offsets, x0, spacings",
        [
            (C4_OFFSETS, 1 - 2**-53, [4e-16, 2e-16, 1e-16]),
            (C4_OFFSETS, -(1 - 2**-53), [4e-16, 2e-16, 1e-16]),
            (C4_OFFSETS, 1e300, [0.04, 0.02, 0.01]),
            # subnormal spacings; the first meets at 2e-323 but not at 1e-323
            ([Fraction(-2, 7), Fraction(1, 7), Fraction(2, 7)], 0.0, [2e-323, 1e-323, 5e-324]),
            ([Fraction(1, 7), Fraction(2, 7), Fraction(1)], 5e-324, [2e-323, 1e-323, 5e-324]),
            ([Fraction(-1, 3), Fraction(0), Fraction(1, 3)], -5e-324, [1e-322, 1e-323, 5e-324]),
            ([Fraction(-11, 7), Fraction(-10, 7)], 0.0, [8e-323, 4e-323, 2e-323]),
            # one float apart: the products' rounding alone makes the points meet
            ([Fraction(3), 3 + Fraction(1, 2**51)], 0.0, [3.2, 1.6, 0.8]),
            # offsets that are not floats
            ([Fraction(-1, 3), Fraction(0), Fraction(1, 3)], 1.0, [1e-15, 3e-16, 1e-16]),
            ([Fraction(k, 7) for k in (-9, -2, 3, 10)], 1.0, [1e-15, 3e-16, 1e-16]),
        ],
    )
    def test_adversarial_points_the_scan_refuses_are_refused(self, offsets, x0, spacings):
        assert scan_refuses(offsets, x0, spacings)
        assert rule_refuses(offsets, x0, spacings[-1])

    def test_no_bench_study_request_is_refused(self):
        # the rule needs only the offsets, x0 and the grid's smallest spacing: nothing is sampled
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        offsets = {o for fid in workloads.STUDY_IDS for o in flatten(formula_from_id(fid)).offsets}
        refused = []
        for seed in range(1, 201):
            for r in workloads.study_requests(random.Random(seed)):
                h = numdiff._study_input(r["function"], r["x0"], r["h_max"], r["h_min"],
                                         r["h_factor"])[2][-1]
                if rule_refuses(offsets, r["x0"], h):
                    refused.append((seed, r["function"]))
        assert refused == []


class TestStudyInput:
    @pytest.mark.parametrize(
        "body, poly",
        [
            ("x^3", {3: 1.0}),
            ("2x^4-3x+1", {4: 2.0, 1: -3.0, 0: 1.0}),
            ("-1x^15-2x^5+8x^2-7", {15: -1.0, 5: -2.0, 2: 8.0, 0: -7.0}),
            ("+3x^12+9x^7-4x^1+5", {12: 3.0, 7: 9.0, 1: -4.0, 0: 5.0}),
        ],
    )
    def test_polynomial_parser_reads_each_term(self, body, poly):
        assert numdiff._parse_polynomial(body) == poly

    @pytest.mark.parametrize("function", ["sin100pi", "sin1000pi", "poly:x^2"])
    def test_every_study_function_and_its_derivative_are_checked(self, function):
        # at 1e308, omega * x is inf, x**2 raises OverflowError and 2 * x is inf
        for f in numdiff._resolve_function(function):
            assert math.isfinite(f(0.5))
            with pytest.raises(ValueError, match=r"overflows at x = 1e\+308$"):
                f(1e308)
