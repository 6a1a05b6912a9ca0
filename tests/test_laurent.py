import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctseq.errors import ResourceLimitError, RingMismatchError
from ctseq.laurent import LaurentPoly
from ctseq.textio import parse_poly, preset

x = parse_poly


def poly_strategy(nvars=1, degree=3, coeff=4, modulus=None):
    exps = st.tuples(*[st.integers(-degree, degree)] * nvars)
    return st.dictionaries(exps, st.integers(-coeff, coeff), max_size=6).map(
        lambda terms: LaurentPoly(nvars, terms, modulus)
    )


def test_add_cancellation():
    assert x("x + 1") + x("x^-1 - 1") == x("x + x^-1")


def test_add_identity():
    a = x("3*x^2 - x^-1")
    assert a + LaurentPoly.zero(1) == a


def test_add_mod3():
    two_x = LaurentPoly(1, {(1,): 2}, 3)
    one_x = LaurentPoly(1, {(1,): 1}, 3)
    assert (two_x + one_x).is_zero()


def test_mul_square():
    assert x("x^-1 + x") * x("x^-1 + x") == x("x^-2 + 2 + x^2")


def test_mul_identity():
    a = x("x^-2 + 5*x")
    assert a * LaurentPoly.one(1) == a


def test_with_modulus_returns_itself_when_the_modulus_matches():
    exact = x("-4*x^-2 + 7 + 30*x*y")
    assert exact.with_modulus(None) is exact
    mod27 = exact.with_modulus(27)
    assert mod27 is not exact
    assert mod27.with_modulus(27) is mod27
    for src, modulus in ((exact, 9), (mod27, 9), (mod27, None)):
        copy = src.with_modulus(modulus)
        fresh = LaurentPoly(src.nvars, dict(src.terms), modulus)
        assert copy is not src
        assert copy == fresh and hash(copy) == hash(fresh)
        assert copy.modulus == modulus
        if modulus is not None:
            assert all(0 < c < modulus for c in copy.terms.values())


def test_mul_mod4():
    # full square is x^-2 + 4x^-1 + 6 + 4x + x^2, reduced mod 4
    a = x("x^-1 + 2 + x").with_modulus(4)
    exact = x("x^-1 + 2 + x") * x("x^-1 + 2 + x")
    assert exact == x("x^-2 + 4*x^-1 + 6 + 4*x + x^2")
    assert a * a == exact.with_modulus(4)
    assert a * a == x("x^-2 + 2 + x^2").with_modulus(4)


def test_pow_square():
    assert x("x^-1 + 1 + x").pow(2) == x("x^-2 + 2*x^-1 + 3 + 2*x + x^2")


def test_pow_zero():
    assert x("x^-1 + 7 + x").pow(0) == LaurentPoly.one(1)


def test_pow_mod3():
    got = x("x^-1 + 1 + x").with_modulus(3).pow(2)
    assert got == x("x^-2 + 2*x^-1 + 2*x + x^2").with_modulus(3)


def test_lambda_all_even():
    assert x("x^-2 + 2 + x^2").lambda_k(2) == x("x^-1 + 2 + x")


def test_lambda_constant_survivor():
    assert x("x^-2 + 2*x^-1 + 3 + 2*x + x^2").lambda_k(3) == x("3")


def test_lambda_componentwise():
    a = x("5*x^-3*y^-2 + 2*x*y^-1 + 4*x^2*y^-2")
    assert a.lambda_k(2) == x("4*x*y^-1")


def test_lambda_identity_at_one():
    a = x("x^-2 + 2 + y^3")
    assert a.lambda_k(1) == a


def test_lambda_rejects_zero():
    with pytest.raises(ValueError):
        x("x").lambda_k(0)


def test_degree_mixed_exponents():
    assert x("5*x^-3*y^-2 + 2*x*y^-1").degree() == 3


def test_degree_constant_and_zero():
    assert x("7").degree() == 0
    assert LaurentPoly.zero(2).degree() == 0
    assert x("x^-1 + 1 + x").degree() == 1


def test_coeff():
    a = x("x^-2 + 2 + x^2")
    assert a.coeff((0,)) == 2
    assert a.coeff((1,)) == 0
    assert a.ct() == 2


def test_apery_constant_term():
    P, _ = preset("apery")
    assert P.ct() == 5
    assert P.degree() == 1


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        x("x") + x("x*y")
    with pytest.raises(RingMismatchError):
        x("x").mul(x("x").with_modulus(5))
    with pytest.raises(RingMismatchError):
        x("x + y").coeff((1,))


def test_term_guard():
    a = LaurentPoly(1, {(e,): 1 for e in range(40)})
    with pytest.raises(ResourceLimitError):
        a.mul(a, term_guard=50)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@settings(max_examples=40, deadline=None)
@given(poly_strategy(nvars=2, degree=2, coeff=3),
       st.integers(0, 8), st.integers(0, 8))
def test_pow_additivity(a, m, n):
    assert a.pow(m + n) == a.pow(m) * a.pow(n)


@settings(max_examples=50, deadline=None)
@given(poly_strategy(nvars=2, degree=2), poly_strategy(nvars=2, degree=2),
       st.integers(2, 4))
def test_section_pushes_through_dilated_factors(a, b, k):
    # section_k(B(x^k) * A) = B * section_k(A)
    assert (b.dilate(k) * a).lambda_k(k) == b * a.lambda_k(k)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(nvars=2, degree=2, coeff=6), st.sampled_from([2, 3, 5]))
def test_freshman_dream(a, p):
    am = a.with_modulus(p)
    assert am.pow(p) == am.dilate(p)
