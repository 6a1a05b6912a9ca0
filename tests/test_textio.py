import random

import pytest

from ctseq.errors import ParseError
from ctseq.laurent import LaurentPoly
from ctseq.textio import (
    PRESETS,
    format_poly,
    parse_poly,
    preset,
    verdict_to_json,
)


def test_parse_catalan_base():
    assert parse_poly("x^-1 + 2 + x") == LaurentPoly(1, {(-1,): 1, (0,): 2, (1,): 1})


def test_parse_apery_product():
    got = parse_poly("(1+x)*(1+y)*(1+z)*(1+y+z+y*z+x*y*z)/(x*y*z)")
    assert got.ct() == 5
    assert got.degree() == 1
    assert got.nvars == 3
    # against a direct expansion over exact integers
    a = parse_poly("(1+x)*(1+y)*(1+z)")
    b = parse_poly("1+y+z+y*z+x*y*z")
    shift = LaurentPoly.monomial(3, (-1, -1, -1))
    assert got == a * b * shift


def test_parse_rejects_polynomial_divisor():
    with pytest.raises(ParseError):
        parse_poly("x/(1+y)")


def test_parse_rejects_scaled_divisor():
    with pytest.raises(ParseError):
        parse_poly("x/2")
    assert parse_poly("x/(-y)") == LaurentPoly(2, {(1, -1): -1})


def test_parse_rejects_mixed_variable_styles():
    with pytest.raises(ParseError):
        parse_poly("y + x2")
    # bare x doubles as the first indexed axis
    assert parse_poly("x + x2") == parse_poly("x1 + x2")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + $")
    assert err.value.position == 4


def test_parse_whitespace_and_signs():
    assert parse_poly(" x ^ -2  -  3 ") == LaurentPoly(1, {(-2,): 1, (0,): -3})
    assert parse_poly("-x*y") == LaurentPoly(2, {(1, 1): -1})
    assert parse_poly("x^0") == LaurentPoly.one(1)


def test_format_examples():
    assert format_poly(preset("pascal")[0]) == "x^-1 + x"
    assert format_poly(LaurentPoly.zero(1)) == "0"
    assert format_poly(parse_poly("1 - x")) == "1 - x"
    assert format_poly(parse_poly("-2*x + y^3")) == "y^3 - 2*x"


def test_format_four_variables():
    a = parse_poly("x1*x4 - 2*x2^-1")
    assert format_poly(a) == "-2*x2^-1 + x1*x4"
    assert parse_poly(format_poly(a)) == a


def _random_poly(rng):
    nvars = rng.randint(1, 3)
    while True:
        terms = {}
        for _ in range(rng.randint(1, 7)):
            e = tuple(rng.randint(-4, 4) for _ in range(nvars))
            c = rng.randint(-9, 9)
            if c:
                terms[e] = c
        poly = LaurentPoly(nvars, terms)
        # arity is inferred from the text, so the last axis must be used
        if poly.terms and any(e[-1] for e in poly.terms):
            return poly


def test_round_trip_500_random():
    rng = random.Random(7)
    for _ in range(500):
        poly = _random_poly(rng)
        assert parse_poly(format_poly(poly)) == poly


def test_round_trip_presets():
    for name in PRESETS:
        for poly in preset(name):
            if poly.terms and not any(e[-1] for e in poly.terms):
                continue
            assert parse_poly(format_poly(poly)) == poly


def test_preset_table():
    assert sorted(PRESETS) == ["apery", "catalan", "motzkin", "pascal", "trinomial"]
    P, Q = preset("motzkin")
    assert format_poly(P) == "x^-1 + 1 + x"
    assert format_poly(Q) == "1 - x^2"
    with pytest.raises(KeyError):
        preset("fibonacci")


def test_verdict_json_key_order():
    from ctseq.classify import verdict

    record = verdict_to_json(verdict(preset("trinomial")[0], preset("trinomial")[1], 3))
    assert record.startswith('{"p": 3, "a": 1, "m": 0, "window_size": 1, ')
    assert record.index('"zero_witness"') < record.index('"linearly_recurrent"')
    assert '"status": "exact"' in record
