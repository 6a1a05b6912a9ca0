import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctseq import classify, oracle
from ctseq.classify import (
    GapReport,
    GapRow,
    combine,
    combine_components,
    conjecture_scan,
    gap_stats,
    reachable_states,
    verdict,
    zero_frequency,
    zero_witness,
)
from ctseq.errors import ResourceLimitError
from ctseq.laurent import LaurentPoly
from ctseq.linrep import LinRep
from ctseq.morphism import MorphicStream
from ctseq.textio import parse_poly, preset

one = LaurentPoly.one(1)


def test_reachable_trinomial_mod3():
    P, _ = preset("trinomial")
    reach = reachable_states(LinRep(P, one, 3))
    assert reach.zero_ct_reachable
    assert reach.witness_n0 == 2
    assert reach.nonzero_ct_off_origin  # the second coefficient is 1


def test_reachable_trinomial_mod2():
    P, _ = preset("trinomial")
    reach = reachable_states(LinRep(P, one, 2))
    assert reach.states == [(1,)]
    assert not reach.zero_ct_reachable


def test_reachable_pascal_flags():
    P, _ = preset("pascal")
    reach = reachable_states(LinRep(P, one, 2))
    assert reach.witness_n0 == 1
    assert not reach.nonzero_ct_off_origin  # every later coefficient is even


def test_zero_witness_values():
    assert zero_witness(preset("trinomial")[0], 3) == 2
    assert zero_witness(preset("trinomial")[0], 2) is None
    assert zero_witness(preset("pascal")[0], 2) == 1
    # x^(p-1) + x^-1 vanishes from the first power on
    assert zero_witness(parse_poly("x + x^-1"), 2) == 1
    assert zero_witness(parse_poly("x^2 + x^-1"), 3) == 1
    assert zero_witness(parse_poly("x^4 + x^-1"), 5) == 1


def test_zero_witness_minimality_scan():
    rng = random.Random(13)
    from conftest import random_poly

    for _ in range(30):
        P = random_poly(rng)
        for p in (2, 3, 5):
            w = zero_witness(P, p)
            seq = oracle.sequence(P, one, p, min(w or 300, 300) + 1)
            if w is not None and w <= 300:
                assert seq[w] == 0
                assert all(v != 0 for v in seq[:w])
            elif w is None:
                assert all(v != 0 for v in seq)


@pytest.mark.parametrize("n0, why", [(5, "not minimal"), (1, "not a zero")])
def test_doctored_witnesses_are_refused(n0, why):
    # ct((x^-1+1+x)^n) mod 3 runs 1, 1, 0, 1, 1, 0, ...: 2 is the least
    # zero, 5 a later one and 1 no zero at all
    P, _ = preset("trinomial")
    rep = LinRep(P, one, 3)
    classify._verify_witness(P, 3, rep, 2)
    with pytest.raises(AssertionError, match=why):
        classify._verify_witness(P, 3, rep, n0)
    # terms that agree with the claim leave the refusal to the oracle leg
    doctored = SimpleNamespace(row_Q=rep.row_Q, eval_many=lambda ns, rows: [
        0 if n == n0 else 1 for n in ns])
    with pytest.raises(AssertionError, match="oracle rejects witness %d" % n0):
        classify._verify_witness(P, 3, doctored, n0)


def test_absent_witness_means_no_zero_in_long_scan():
    # reachability said "never zero"; a 10^5-term scan must agree
    P, _ = preset("trinomial")
    assert zero_witness(P, 2) is None
    rep = LinRep(P, one, 2)
    prefix = MorphicStream(rep).coded_prefix(rep.v0, 100_000)
    assert all(v != 0 for v in prefix)
    rng = random.Random(17)
    from conftest import random_poly

    scanned = 0
    while scanned < 3:
        Q = random_poly(rng)
        for p in (2, 3, 5):
            if zero_witness(Q, p) is None:
                repq = LinRep(Q, one, p)
                head = MorphicStream(repq).coded_prefix(repq.v0, 100_000)
                assert all(v % p != 0 for v in head)
                scanned += 1


def test_verdict_fixtures():
    P, Q = preset("motzkin")
    v3 = verdict(P, Q, 3)
    assert not v3.linearly_recurrent
    assert v3.zero_witness == 2
    assert v3.recurrence_guaranteed
    v2 = verdict(P, Q, 2)
    assert v2.linearly_recurrent
    assert v2.zero_witness is None
    vp = verdict(preset("pascal")[0], one, 2)
    assert vp.zero_witness == 1
    assert not vp.recurrence_guaranteed
    assert not vp.linearly_recurrent


def test_verdict_independent_of_coding_and_exponent():
    P, Q = preset("motzkin")
    base = verdict(P, Q, 3, 1)
    for a in (1, 2, 3):
        for q_text in ("1", "1 - x^2", "1 + x"):
            v = verdict(P, parse_poly(q_text), 3, a)
            assert dataclasses.replace(v, a=1) == base


def test_verdict_bounds():
    P, _ = preset("trinomial")
    v = verdict(P, one, 3)
    assert v.conjecture_bound == 3
    assert v.naive_bound_digits == 2  # 3^3 = 27 has two digits
    assert v.window_size == 1 and v.m == 0
    assert v.status == "exact"


def test_verdict_inconclusive():
    P = parse_poly("x^3 - 2*x + x^-2 + 1")
    v = verdict(P, one, 5, state_cap=3)
    assert v.status == "inconclusive"
    assert v.linearly_recurrent is None
    assert v.zero_witness is None


def test_verdict_inconclusive_reports_interned_states():
    P = parse_poly("x^3 - 2*x + x^-2 + 1")
    v = verdict(P, one, 5, state_cap=3)
    assert v.status == "inconclusive"
    assert v.reachable_states == 3
    with pytest.raises(ResourceLimitError) as err:
        reachable_states(LinRep(P, one, 5), state_cap=3)
    assert err.value.states == 3


def test_verdict_digit_cap_is_a_guard_not_inconclusive():
    P = parse_poly("x^-1 + 1 + x")
    with pytest.raises(ResourceLimitError, match="digit matrices"):
        verdict(P, one, 1000003)


def test_verdict_keeps_global_decimal_precision():
    from decimal import getcontext, localcontext

    with localcontext() as ctx:
        ctx.prec = 41
        verdict(preset("motzkin")[0], one, 3)
        assert getcontext().prec == 41


def test_zero_frequency_counts():
    P, _ = preset("trinomial")
    rep = LinRep(P, one, 3)
    seq = MorphicStream(rep).coded_prefix(rep.v0, 729)
    assert zero_frequency(seq, 27) >= Fraction(1, 27)
    assert zero_frequency(seq, 729) >= Fraction(53, 729)
    P2, Q2 = preset("motzkin")
    rep2 = LinRep(P2, Q2, 2)
    seq2 = MorphicStream(rep2).coded_prefix(rep2.row_Q, 1024)
    freq = zero_frequency(seq2, 1024)
    assert 0 < freq < 1  # linearly recurrent yet not zero-free
    assert zero_frequency([1] * 10, 10) == 0
    with pytest.raises(ValueError):
        zero_frequency(seq, 0)


def test_gap_stats_constant():
    report = gap_stats([5] * 40, 1, 40)
    assert len(report.rows) == 1
    assert report.rows[0].count == 40
    assert report.rows[0].max_gap == 1
    assert not report.rows[0].censored


def test_gap_stats_trinomial_mod2():
    P, _ = preset("trinomial")
    rep = LinRep(P, one, 2)
    seq = MorphicStream(rep).coded_prefix(rep.v0, 64)
    report = gap_stats(seq, 3, 64)
    assert [r.word for r in report.rows] == [(1, 1, 1)]
    assert report.rows[0].max_gap == 1


def test_gap_stats_motzkin_mod2():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 2)
    seq = MorphicStream(rep).coded_prefix(rep.row_Q, 4096)
    report = gap_stats(seq, 1, 4096)
    assert {r.word for r in report.rows} == {(0,), (1,)}
    assert all(r.max_gap > 0 for r in report.rows)


def test_gap_stats_censoring():
    # the word (2,) occurs once early; the long tail exceeds its zero gap
    report = gap_stats([2, 1, 1, 1, 1, 1], 1, 6)
    row = {r.word: r for r in report.rows}
    assert row[(2,)].censored
    assert not row[(1,)].censored


def _reference_zero_frequency(seq, count):
    """The plain-Python zero count that zero_frequency must match."""
    if count <= 0:
        raise ValueError("count must be positive")
    if len(seq) < count:
        raise ValueError("sequence provides %d of %d terms" % (len(seq), count))
    zeros = sum(1 for v in seq[:count] if v == 0)
    return Fraction(zeros, count)


def _reference_gap_stats(seq, word_length, count):
    """The dict-of-tuples gap statistics that gap_stats must match."""
    if not 0 < word_length <= count:
        raise ValueError("need 0 < word length <= prefix length")
    if len(seq) < count:
        raise ValueError("sequence provides %d of %d terms" % (len(seq), count))
    occurrences = {}
    for i in range(count - word_length + 1):
        w = tuple(seq[i : i + word_length])
        occurrences.setdefault(w, []).append(i)
    report = GapReport(word_length=word_length, prefix_length=count)
    last_start = count - word_length
    for w in sorted(occurrences):
        starts = occurrences[w]
        gap = max(
            (b - a for a, b in zip(starts, starts[1:])), default=0
        )
        censored = (last_start - starts[-1]) > gap
        report.rows.append(GapRow(w, len(starts), gap, censored))
    return report


_ALPHABETS = [
    [0, 1],
    [0, 1, 2, 3],
    list(range(10)),
    [-7, -1, 0, 2, 5],
    [0, 1, 2**63, 2**64 + 3, -(2**70), 3**50],
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_statistics_match_plain_python_reference(data):
    alphabet = data.draw(st.sampled_from(_ALPHABETS))
    size = data.draw(st.integers(1, 90))
    seq = data.draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size))
    count = data.draw(st.integers(1, len(seq)))
    inputs = [seq]
    if all(-(2**63) <= v < 2**63 for v in seq):
        inputs.append(np.array(seq, dtype=np.int64))
    for given_seq in inputs:
        assert zero_frequency(given_seq, count) == _reference_zero_frequency(seq, count)
        for word_length in range(1, count + 1):
            got = gap_stats(given_seq, word_length, count)
            assert got == _reference_gap_stats(seq, word_length, count)
            assert all(type(v) is int for row in got.rows for v in row.word)


def test_gap_stats_ranks_long_words(monkeypatch):
    # ten symbols: the terms are ranked once; keys of 5..18 letters pass
    # 2^16 and are ranked before the sort; from 19 letters on the keys
    # would pass 2^63 and are ranked while packing, 40 letters twice
    rng = random.Random(3)
    seq = [rng.randrange(10) for _ in range(400)]
    calls = []
    ranks = classify._ranks
    monkeypatch.setattr(classify, "_ranks",
                        lambda values: calls.append(len(values)) or ranks(values))
    for word_length, ranked in ((1, 1), (2, 1), (5, 2), (11, 2), (19, 2),
                                (40, 3), (400, 3)):
        calls.clear()
        got = gap_stats(seq, word_length, 400)
        assert got == _reference_gap_stats(seq, word_length, 400)
        assert len(calls) >= ranked


def test_gap_stats_rejects_bad_lengths():
    for word_length, count in ((0, 5), (6, 5), (2, 7)):
        with pytest.raises(ValueError):
            gap_stats([1, 2, 3, 4, 5, 6], word_length, count)


def test_combine_single_part_identity():
    P, Q = preset("motzkin")
    got = combine(P, [(0, Q, 1)], 3, 1, 50)
    assert got == oracle.sequence(P, Q, 3, 50)


def test_combine_trinomial_plus_motzkin():
    P, _ = preset("trinomial")
    Q = parse_poly("1 - x^2")
    got = combine(P, [(0, one, 1), (0, Q, 1)], 3, 1, 30)
    assert got[2] == 2  # 0 + 2
    # linearity: equals ct(P^n (1 + Q))
    assert got == oracle.sequence(P, one + Q, 3, 30)


def test_combine_shift_reindexes():
    P, Q = preset("catalan")
    shifted = combine(P, [(1, Q, 1)], 2, 1, 40)
    plain = combine(P, [(0, Q, 1)], 2, 1, 41)
    assert shifted == plain[1:]


def test_combine_components_tuple_stream():
    P, _ = preset("trinomial")
    Q = parse_poly("1 - x^2")
    rows = combine_components(P, [(0, one, 1), (1, Q, 2)], 3, 2, 20)
    t = oracle.sequence(P, one, 9, 21)
    m = oracle.sequence(P, Q, 9, 21)
    assert rows == [(t[n], m[n + 1]) for n in range(20)]


def test_combine_rejects_negative_shift():
    P, _ = preset("trinomial")
    with pytest.raises(ValueError):
        combine(P, [(-1, one, 1)], 3, 1, 5)


def test_conjecture_scan_fixtures():
    report = conjecture_scan(count=5, degree_max=2, coeff_max=2,
                             primes=(2, 3), seed=99)
    assert len(report.items) == 10
    assert all(it.status in ("witness", "no_zero", "inconclusive")
               for it in report.items)
    for it in report.items:
        if it.status == "witness":
            assert it.conforms == (it.witness < it.bound)


def test_conjecture_scan_digit_cap_is_a_guard_not_inconclusive():
    # a prime above the digit cap is refused before scanning instead of
    # being listed as an open case
    with pytest.raises(ResourceLimitError):
        conjecture_scan(count=2, primes=(2, 103), seed=1)
    # a prime at the cap is scanned; windows of one close exactly
    report = conjecture_scan(count=2, degree_max=1, primes=(2, 101), seed=1)
    assert len(report.items) == 4
    assert not report.inconclusive


def test_conjecture_known_polynomials():
    from ctseq.classify import ScanItem

    tri = preset("trinomial")[0]
    w = zero_witness(tri, 3)
    assert w == 2 and w < 3**1
    pas = preset("pascal")[0]
    w = zero_witness(pas, 2)
    assert w == 1 and w < 2**1
