"""Error-series coefficients against closed forms and a monomial oracle."""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdcorr
from fdcorr import (
    GridFunction,
    apply,
    binom,
    error_series,
    expand,
    oracle_weights,
    series_from_nodes,
    word,
)
from fdcorr import gridops, stencil, taylorseries
from fdcorr.cli import MAX_ORDER
from fdcorr.defcor import FAMILIES, CorrectionFormula
from fdcorr.exactmath import ratios

HALF = Fraction(1, 2)


class TestKnownSeries:
    def test_forward_quotient(self):
        s = error_series(word(fwd=1), 4)
        assert s.lead == 1
        assert s.coefficient(2) == Fraction(1, 2)
        assert s.coefficient(3) == Fraction(1, 6)
        assert s.coefficient(4) == Fraction(1, 24)

    def test_second_difference(self):
        s = error_series(word(fwd=1, bwd=1), 6)
        assert s.lead == 2
        assert s.coefficient(4) == Fraction(1, 12)
        assert s.coefficient(6) == Fraction(1, 360)
        assert s.coefficient(3) == 0 and s.coefficient(5) == 0

    def test_half_point_third_difference(self):
        s = error_series(word(cent=1, fwd=1, bwd=1), 5)
        assert s.lead == 3
        assert s.coefficient(4) == 0
        assert s.coefficient(5) == Fraction(1, 8)

    def test_coefficient_reads_the_lead_omitted_entries_and_the_truncation(self):
        # (u(x + k) - u(x - k)) / 2k = u' + k^2 u^(3) / 6 + k^4 u^(5) / 120 + ...
        s = series_from_nodes({1: HALF, -1: -HALF}, 1, 6)
        assert (s.lead, s.truncation) == (1, 6)
        assert s.coefficient(1) == 1
        assert s.coefficient(2) == 0 and s.coefficient(4) == 0
        assert s.coefficient(3) == Fraction(1, 6) and s.coefficient(5) == Fraction(1, 120)
        with pytest.raises(ValueError, match="series truncated at 6, asked for 7"):
            s.coefficient(7)

    def test_averaged_second_difference(self):
        # closed form for the averaged composite, evaluated independently
        a_12 = (
            sum(
                (-1) ** j
                * binom(2, j)
                * ((Fraction(1 - j) + HALF) ** 4 + (Fraction(1 - j) - HALF) ** 4)
                for j in range(3)
            )
            / 2
        )
        assert a_12 == 5
        s = error_series(word(avg=1, fwd=1, bwd=1), 4)
        assert s.lead == 2
        assert s.coefficient(4) == a_12 / math.factorial(4) == Fraction(5, 24)

    def test_backward_series_matches_classical_expansion(self):
        # guard: the backward family expands with alternating signs
        s = error_series(word(bwd=1), 4)
        assert s.coefficient(2) == Fraction(-1, 2)
        assert s.coefficient(3) == Fraction(1, 6)
        assert s.coefficient(4) == Fraction(-1, 24)
        for m in (1, 2, 3):
            got = error_series(word(bwd=m), m + 4)
            for i in range(m + 1, m + 5):
                closed = sum(
                    (-1) ** j * binom(m, j) * Fraction(-j) ** i for j in range(m + 1)
                ) / math.factorial(i)
                assert got.coefficient(i) == closed


class TestClosedForms:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_forward_powers(self, m):
        s = error_series(word(fwd=m), m + 5)
        for i in range(m + 1, m + 6):
            closed = sum(
                (-1) ** j * binom(m, j) * Fraction(m - j) ** i for j in range(m + 1)
            ) / math.factorial(i)
            assert s.coefficient(i) == closed

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_one_sided_odd_composite(self, m):
        s = error_series(word(fwd=m, bwd=m + 1), 2 * m + 6)
        for i in range(2 * m + 2, 2 * m + 7):
            closed = sum(
                (-1) ** j * binom(2 * m + 1, j) * Fraction(m - j) ** i
                for j in range(2 * m + 2)
            ) / math.factorial(i)
            assert s.coefficient(i) == closed

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_half_point_odd_composite(self, m):
        # nodes at m + 1/2 - j for j = 0..2m+1 (direct expansion convention)
        s = error_series(word(cent=1, fwd=m, bwd=m), 2 * m + 7)
        for i in range(2 * m + 2, 2 * m + 8):
            closed = sum(
                (-1) ** j * binom(2 * m + 1, j) * (Fraction(m - j) + HALF) ** i
                for j in range(2 * m + 2)
            ) / math.factorial(i)
            assert s.coefficient(i) == closed

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_averaged_composite(self, m):
        s = error_series(word(avg=1, fwd=m, bwd=m), 2 * m + 6)
        for i in range(m + 1, m + 4):
            a_mi = (
                sum(
                    (-1) ** j
                    * binom(2 * m, j)
                    * (
                        (Fraction(m - j) + HALF) ** (2 * i)
                        + (Fraction(m - j) - HALF) ** (2 * i)
                    )
                    for j in range(2 * m + 1)
                )
                / 2
            )
            assert s.coefficient(2 * i) == a_mi / math.factorial(2 * i)


class TestParity:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_half_point_composites_expand_in_odd_orders_only(self, m):
        s = error_series(word(cent=1, fwd=m, bwd=m), 12)
        assert all(i % 2 for i in s.coeffs)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_averaged_composites_expand_in_even_orders_only(self, m):
        s = error_series(word(avg=1, fwd=m, bwd=m), 12)
        assert all(i % 2 == 0 for i in s.coeffs)


def word_id(expr):
    powers = {"fwd": expr.p_fwd, "bwd": expr.p_bwd, "cent": expr.p_cent, "avg": expr.p_avg}
    return "*".join(sym if p == 1 else f"{sym}^{p}" for sym, p in powers.items() if p)


MONOMIAL_WORDS = [
    word(fwd=1),
    word(bwd=2),
    word(fwd=1, bwd=1),
    word(cent=1),
    word(cent=1, fwd=1, bwd=1),
    word(avg=1, fwd=1, bwd=1),
    word(fwd=2, bwd=2),
    word(fwd=2, bwd=3),
    word(avg=1),
]


class TestMonomialOracle:
    @pytest.mark.parametrize("expr", MONOMIAL_WORDS, ids=word_id)
    def test_stencil_on_monomials_reproduces_coefficients(self, expr):
        truncation = expr.diff_order + 6
        s = error_series(expr, truncation)
        indices = [Fraction(i, 2) for i in range(-24, 25)]
        for i in range(truncation + 1):
            u = GridFunction({t: t**i for t in indices})
            value = apply(expr, u, 0, Fraction(1))
            if i < expr.diff_order:
                assert value == 0
            elif i == expr.diff_order:
                assert value == math.factorial(i)
            else:
                assert value == math.factorial(i) * s.coefficient(i)


class TestSpacingScaling:
    def test_coefficients_scale_with_step(self):
        base = error_series(word(cent=1), 7)
        wide = error_series(word(cent=1, spacing=3), 7)
        for i in range(2, 8):
            assert wide.coefficient(i) == Fraction(3) ** (i - 1) * base.coefficient(i)


def rational_moment_series(nodes, lead, truncation):
    """Reference: the plain ``Fraction`` moment loop, one node power at a time."""
    coeffs = {}
    for i in range(truncation + 1):
        total = sum((w * o**i for o, w in nodes.items()), start=Fraction(0))
        if i < lead:
            if total:
                raise ValueError(f"nodes do not annihilate degree {i}: moment sum {total}")
        elif i == lead:
            if total != math.factorial(lead):
                raise ValueError(
                    f"lead moment is {total}, expected {lead}! for a normalized "
                    "derivative approximation"
                )
        elif total:
            coeffs[i] = total / math.factorial(i)
    return coeffs


# Offsets on thirds, fifths, sevenths and fifteenths as well as half-steps;
# weights with denominators up to 10**15.
rational_offsets = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 15])
)
large_weights = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**15)
)


@st.composite
def normalized_nodes(draw):
    """Random nodes for derivative ``lead``: moments below it vanish, its own is lead!.

    The weights of the first ``lead + 1`` nodes are solved for (from the
    moment-system oracle's unit solutions); the others are drawn freely.
    """
    lead = draw(st.integers(0, 3))
    offsets = draw(st.lists(rational_offsets, min_size=lead + 1, max_size=lead + 6, unique=True))
    head, tail = offsets[: lead + 1], offsets[lead + 1 :]
    free = draw(st.lists(large_weights, min_size=len(tail), max_size=len(tail)))
    nodes = dict(zip(tail, free))
    for r in range(lead + 1):
        target = math.factorial(lead) if r == lead else 0
        residual = target - sum((w * o**r for o, w in nodes.items()), start=Fraction(0))
        unit = oracle_weights(head, r)
        for o, w in zip(head, unit):
            nodes[o] = nodes.get(o, 0) + residual * w / math.factorial(r)
    return nodes, lead


class TestIntegerMomentKernel:
    @given(normalized_nodes(), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_rational_moment_loop(self, case, depth):
        nodes, lead = case
        truncation = lead + depth
        got = series_from_nodes(nodes, lead, truncation)
        assert got.coeffs == rational_moment_series(nodes, lead, truncation)
        assert all(type(c) is Fraction for c in got.coeffs.values())

    @given(normalized_nodes(), large_weights.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_broken_nodes_raise_the_reference_message(self, case, bump):
        nodes, lead = case
        offset = next(iter(nodes))
        nodes[offset] += bump
        with pytest.raises(ValueError) as expected:
            rational_moment_series(nodes, lead, lead + 2)
        with pytest.raises(ValueError) as got:
            series_from_nodes(nodes, lead, lead + 2)
        assert str(got.value) == str(expected.value)

    def test_error_messages_keep_their_wording(self):
        with pytest.raises(ValueError) as excinfo:
            series_from_nodes({Fraction(1, 3): Fraction(1, 7)}, 1, 4)
        assert str(excinfo.value) == "nodes do not annihilate degree 0: moment sum 1/7"
        with pytest.raises(ValueError) as excinfo:
            series_from_nodes({Fraction(1, 3): Fraction(3, 2), Fraction(0): Fraction(-3, 2)}, 1, 4)
        assert str(excinfo.value) == (
            "lead moment is 1/2, expected 1! for a normalized derivative approximation"
        )


def power_sum_series(nodes, lead, truncation):
    """Reference: the uncached power-sum loop, every moment from degree 0 on the lattice."""
    scale = math.lcm(*(o.denominator for o in nodes))
    den = math.lcm(*(w.denominator for w in nodes.values()))
    points = [o.numerator * (scale // o.denominator) for o in nodes]
    terms = [w.numerator * (den // w.denominator) for w in nodes.values()]
    coeffs = {}
    for i in range(truncation + 1):
        total = sum(terms)
        if i < lead:
            if total:
                raise ValueError(
                    f"nodes do not annihilate degree {i}: moment sum {Fraction(total, den)}"
                )
        elif i == lead:
            if total != math.factorial(i) * den:
                raise ValueError(
                    f"lead moment is {Fraction(total, den)}, expected {lead}! "
                    "for a normalized derivative approximation"
                )
        elif total:
            coeffs[i] = Fraction(total, den * math.factorial(i))
        terms = [b * a for a, b in zip(points, terms)]
        den *= scale
    return coeffs


random_words = st.builds(
    word,
    fwd=st.integers(0, 4),
    bwd=st.integers(0, 4),
    cent=st.integers(0, 4),
    avg=st.integers(0, 3),
    shift=st.sampled_from([0, HALF, -1, Fraction(3, 2)]),
    spacing=st.sampled_from([1, 2, 3, 5, HALF, Fraction(2, 3)]),
)
ORDERINGS = {
    "as drawn": lambda requests: requests,
    "ascending": lambda requests: sorted(requests, key=lambda r: r[1]),
    "descending": lambda requests: sorted(requests, key=lambda r: -r[1]),
    "repeated": lambda requests: [r for r in requests for _ in range(2)],
}


@pytest.fixture
def empty_cache():
    """The process's series cache, cleared before the test and after it."""
    taylorseries._kept.cache_clear()
    yield taylorseries._kept
    taylorseries._kept.cache_clear()


def size_and_misses(cache):
    info = cache.cache_info()
    return info.currsize, info.misses


class TestSeriesMemo:
    @given(
        st.lists(random_words, min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 14)), min_size=1, max_size=10),
        st.sampled_from(sorted(ORDERINGS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_request_equals_the_uncached_loop(self, words, requests, ordering):
        taylorseries._kept.cache_clear()
        requests = ORDERINGS[ordering]([(words[i % len(words)], d) for i, d in requests])
        returned = []
        for expr, depth in requests:
            truncation = expr.diff_order + depth
            got = error_series(expr, truncation)
            want = power_sum_series(expand(expr), expr.diff_order, truncation)
            assert (got.lead, got.truncation, got.coeffs) == (expr.diff_order, truncation, want)
            assert all(type(c) is Fraction for c in got.coeffs.values())
            returned.append((got, want))
        # a later, deeper request never changes a series handed out before it
        assert all(got.coeffs == want for got, want in returned)
        assert taylorseries._kept.cache_info().currsize <= len(words)

    def test_a_returned_series_is_the_callers_own(self, empty_cache):
        first = error_series(word(fwd=2), 6)
        first.coeffs.clear()
        again = error_series(word(fwd=2), 6)
        assert empty_cache.cache_info().hits == 1
        assert again.coeffs == power_sum_series(expand(word(fwd=2)), 2, 6)

    @pytest.mark.parametrize(
        "nodes, lead, message",
        [
            ({Fraction(1, 3): Fraction(1, 7)}, 1, "nodes do not annihilate degree 0: moment sum 1/7"),
            (
                {Fraction(1, 3): Fraction(3, 2), Fraction(0): Fraction(-3, 2)},
                1,
                "lead moment is 1/2, expected 1! for a normalized derivative approximation",
            ),
            # the forward difference's own nodes, kept under lead 1, asked for other leads
            (expand(word(fwd=1)), 2, "nodes do not annihilate degree 1: moment sum 1"),
            (expand(word(fwd=1)), 0, "lead moment is 0, expected 0! for a normalized derivative approximation"),
        ],
        ids=["low-degree", "lead-moment", "fwd-as-lead-2", "fwd-as-lead-0"],
    )
    def test_a_failing_call_raises_the_same_message_again_and_keeps_nothing(
        self, empty_cache, nodes, lead, message
    ):
        error_series(word(fwd=1), 5)
        size, misses = size_and_misses(empty_cache)
        for attempt in range(1, 3):
            with pytest.raises(ValueError) as excinfo:
                series_from_nodes(nodes, lead, lead + 4)
            assert str(excinfo.value) == message
            # nothing kept: each attempt is a fresh miss
            assert size_and_misses(empty_cache) == (size, misses + attempt)
        error_series(word(fwd=1), 5)
        assert size_and_misses(empty_cache) == (size, misses + 2)

    def test_the_memo_never_holds_more_entries_than_its_cap(self, empty_cache):
        cap = empty_cache.cache_info().maxsize
        assert cap == 1024
        for n in range(1, cap + 40):
            error_series(word(fwd=1, spacing=n), 3)
            assert empty_cache.cache_info().currsize <= cap
        size, misses = size_and_misses(empty_cache)
        assert size == cap
        # the evicted first entry is computed afresh, and still right
        assert error_series(word(fwd=1), 3).coeffs == power_sum_series(expand(word(fwd=1)), 1, 3)
        assert size_and_misses(empty_cache) == (cap, misses + 1)

    def test_the_least_recently_used_entry_goes_first(self, empty_cache):
        cap = empty_cache.cache_info().maxsize
        exprs = [word(fwd=1, spacing=n) for n in range(1, cap + 2)]
        a, b, c = exprs[:3]
        for expr in exprs[:cap]:
            error_series(expr, 4)
        for expr in (b, a):  # read, and drop nothing: c is now the least recent
            error_series(expr, 4)
        assert size_and_misses(empty_cache) == (cap, cap)
        error_series(exprs[cap], 4)  # drops c
        for expr in (a, b, exprs[cap]):
            error_series(expr, 4)
        assert size_and_misses(empty_cache) == (cap, cap + 1)
        error_series(c, 4)  # computed afresh, and drops exprs[3]
        error_series(exprs[3], 4)
        assert size_and_misses(empty_cache) == (cap, cap + 3)

    def test_a_deeper_request_extends_and_a_shallower_one_reads_the_prefix(
        self, empty_cache, monkeypatch
    ):
        moments = []
        real = taylorseries.power_sums

        def recording(*args):
            for total, den, terms in real(*args):
                moments.append(Fraction(total, den))
                yield total, den, terms

        monkeypatch.setattr(taylorseries, "power_sums", recording)
        expr = word(cent=3, avg=1)
        counts = []
        for truncation in (6, 9, 4, 9, 12):
            before = len(moments)
            got = error_series(expr, truncation)
            assert got.coeffs == power_sum_series(expand(expr), 3, truncation)
            counts.append(len(moments) - before)
        # degrees 0-6 on the miss, 7-9 resumed, 10-12 resumed; 4 and 9 are read
        assert counts == [7, 3, 0, 0, 3]
        nodes = expand(expr)
        assert moments == [sum(w * o**i for o, w in nodes.items()) for i in range(13)]

    def test_concurrent_requests_equal_the_uncached_loop(self, empty_cache):
        words = [word(fwd=2), word(cent=3, avg=1), word(fwd=1, bwd=2, spacing=3), word(avg=2, fwd=1)]
        depths = (1, 4, 9, 16, 25, 36)  # deeper and shallower, in shuffled order below
        requests = [(expr, expr.diff_order + depth) for expr in words for depth in depths]
        requests.append((None, 5))  # a bad node set
        bad = {Fraction(1, 3): Fraction(1, 7)}
        start = threading.Barrier(8)

        def client(seed):
            got, errors = [], []
            order = random.Random(seed).sample(requests, len(requests))
            start.wait(timeout=60)
            for expr, truncation in order:
                if expr is None:
                    with pytest.raises(ValueError) as excinfo:
                        series_from_nodes(bad, 1, truncation)
                    errors.append(str(excinfo.value))
                else:
                    got.append((expr, truncation, error_series(expr, truncation)))
            return got, errors

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so requests interleave
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for round_ in range(20):  # each round from a cleared cache
                    empty_cache.cache_clear()
                    seeds = range(8 * round_, 8 * round_ + 8)
                    results = list(pool.map(client, seeds, timeout=60))
                    for got, errors in results:
                        assert errors == ["nodes do not annihilate degree 0: moment sum 1/7"]
                        for expr, truncation, series in got:
                            want = power_sum_series(expand(expr), expr.diff_order, truncation)
                            assert (series.truncation, series.coeffs) == (truncation, want)
                    assert empty_cache.cache_info().currsize == len(words)
        finally:
            sys.setswitchinterval(interval)


def test_the_cache_bound_holds_every_family_word_to_the_order_cap(monkeypatch):
    """The word caches keep every operator and node set of every named family to ``MAX_ORDER``.

    One bound serves all four caches; the stencil memos need 795 entries there.
    """
    words = set()

    def recording(m, order, choices, base=None):
        words.add(base)
        words.update(choices)
        return CorrectionFormula(m, base, (), order, Fraction(0), {})

    monkeypatch.setattr(fdcorr.defcor, "general_defcor", recording)
    for row in FAMILIES:
        p = row.min_p
        while row.order(p) <= MAX_ORDER:
            row.build(p)
            p += 1
    # the word cache's integer keys, as ``expand`` makes them, and the series
    # cache's keys, from the uncached expansion, so the test leaves both
    # caches as it found them
    cached, keys = gridops._expansion, set()

    def keyed(*key):
        keys.add(key)
        return cached.__wrapped__(*key)

    monkeypatch.setattr(gridops, "_expansion", keyed)
    expansions = [(gridops.expand(w), w.diff_order) for w in words]
    node_sets = {(tuple(ratios(n)), tuple(ratios(n.values())), lead) for n, lead in expansions}
    assert len(words) == len(keys) == len(node_sets) == 997
    assert all(type(k) is int for key in keys for k in key)
    for cache in (cached, taylorseries._kept, stencil._checked, stencil._solved):
        assert cache.cache_info().maxsize == gridops._CACHE_SIZE >= 997


class TestValidation:
    def test_truncation_must_exceed_lead(self):
        with pytest.raises(ValueError):
            error_series(word(fwd=1, bwd=1), 2)

    def test_unnormalized_nodes_rejected(self):
        with pytest.raises(ValueError, match="annihilate"):
            series_from_nodes({Fraction(0): Fraction(1)}, 1, 4)
        with pytest.raises(ValueError, match="lead moment"):
            series_from_nodes(
                {Fraction(1): Fraction(2), Fraction(0): Fraction(-2)}, 1, 4
            )

    @pytest.mark.parametrize(
        "nodes, bad",
        [
            ({0.0: -1.0, 1.0: 1.0}, "0.0"),
            ({Fraction(0): Fraction(-1), Fraction(1): 1.0}, "1.0"),
        ],
    )
    def test_float_nodes_are_named_in_a_type_error(self, empty_cache, nodes, bad):
        # the equal exact node set is kept, and a float set must not read it
        exact = series_from_nodes({Fraction(0): Fraction(-1), Fraction(1): Fraction(1)}, 1, 3)
        with pytest.raises(TypeError) as excinfo:
            series_from_nodes(nodes, 1, 3)
        assert str(excinfo.value) == f"exact rational expected (int or Fraction), got {bad}"
        assert exact.coeffs == {2: Fraction(1, 2), 3: Fraction(1, 6)}

    def test_int_nodes_give_the_fraction_series(self, empty_cache):
        ints = series_from_nodes({0: -1, 1: 1}, 1, 3)
        assert ints.coeffs == {2: Fraction(1, 2), 3: Fraction(1, 6)}
        assert all(type(c) is Fraction for c in ints.coeffs.values())

    def test_coefficient_past_truncation_rejected(self):
        s = error_series(word(fwd=1), 4)
        with pytest.raises(ValueError):
            s.coefficient(5)
