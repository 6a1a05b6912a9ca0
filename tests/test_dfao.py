import pytest

from ctseq import oracle
from ctseq.dfao import build_forward, build_reverse
from ctseq.errors import ResourceLimitError
from ctseq.laurent import LaurentPoly
from ctseq.linrep import LinRep
from ctseq.morphism import MorphicStream
from ctseq.textio import parse_poly, preset

one = LaurentPoly.one(1)


def test_forward_pascal_structure():
    P, _ = preset("pascal")
    d = build_forward(P, one, 2)
    assert d.state_count == 2
    assert d.outputs == [1, 0]
    # state 0 is labeled by Q = 1; digit 0 self-loop, digit 1 to the sink
    assert d.transitions == [[0, 1], [1, 1]]
    assert d.state_labels == ["1", "0"]


def test_forward_trinomial_mod2_single_state():
    P, _ = preset("trinomial")
    d = build_forward(P, one, 2)
    assert d.state_count == 1
    assert d.outputs == [1]
    assert d.transitions == [[0, 0]]


def test_forward_modulus_must_be_a_power_of_p():
    P, _ = preset("pascal")
    assert build_forward(P, one, 2, modulus=8).modulus == 8
    for p, modulus in ((2, 0), (2, 1), (2, -8), (2, 6), (2, 12), (3, 8), (1, 5)):
        with pytest.raises(ValueError, match="is not a power of"):
            build_forward(P, one, p, modulus=modulus)


def test_forward_zero_coding():
    P, _ = preset("pascal")
    d = build_forward(P, LaurentPoly.zero(1), 2)
    assert d.state_count == 1
    assert d.outputs == [0]


def test_reverse_pascal_states():
    P, _ = preset("pascal")
    d = build_reverse(LinRep(P, one, 2))
    assert d.state_count == 2
    assert d.state_vectors == [(1,), (0,)]
    assert d.outputs[0] == 1


def test_reverse_contains_zero_constant_state():
    # the third central trinomial coefficient is 3, so V(2) = (0,) is reachable
    P, _ = preset("trinomial")
    d = build_reverse(LinRep(P, one, 3))
    assert 0 in d.outputs
    assert d.state_vectors[0] == (1,)


def test_run_forward_pascal():
    P, _ = preset("pascal")
    d = build_forward(P, one, 2)
    assert d.run(4) == 0  # binomial(4, 2) = 6 is even
    assert d.run(0) == d.outputs[d.initial]
    got = [d.run(n) for n in range(64)]
    assert got == oracle.sequence(P, one, 2, 64)


def test_run_reverse_motzkin_row():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    d = build_reverse(rep)
    assert d.run(4, row=rep.row_Q) == 0  # fifth Motzkin number is 9
    got = [d.run(n, row=rep.row_Q) for n in range(200)]
    assert got == oracle.sequence(P, Q, 3, 200)


def test_run_trailing_zeros():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    fwd = build_forward(P, Q, 3)
    rev = build_reverse(rep)
    for n in (0, 1, 7, 26):
        digits = []
        m = n
        while m:
            digits.append(m % 3)
            m //= 3
        digits = digits or [0]
        for pad in (0, 1, 3):
            padded = digits + [0] * pad
            assert fwd.run_digits(padded) == fwd.run(n)
            assert rev.run_digits(list(reversed(padded)), row=rep.row_Q) == rev.run(
                n, row=rep.row_Q
            )


def test_reverse_equals_morphism_letters():
    for name, p in (("pascal", 2), ("motzkin", 3), ("catalan", 2)):
        P, Q = preset(name)
        rep = LinRep(P, Q, p)
        d = build_reverse(rep)
        stream = MorphicStream(rep)
        # grow until every reachable letter appears in the prefix
        length = p
        while stream.letter_count() < d.state_count and length < 5_000_000:
            length *= p
            stream.extend(length)
        assert stream.letter_count() == d.state_count
        assert stream.letters == d.state_vectors


def test_forward_settled_zero_self_loop():
    # after enough 0 digits every forward state is constant, and one more
    # 0 digit keeps it fixed
    for name, p in (("motzkin", 3), ("catalan", 2), ("pascal", 5)):
        P, Q = preset(name)
        rep = LinRep(P, Q, p)
        s = rep.settle_exponent()
        d = build_forward(P, Q, p)
        for state in range(d.state_count):
            settled = state
            for _ in range(s):
                settled = d.transitions[settled][0]
            assert d.transitions[settled][0] == settled, (name, state)


def test_forward_state_bound():
    for name, p in (("pascal", 2), ("trinomial", 3), ("catalan", 2)):
        P, Q = preset(name)
        d = build_forward(P, Q, p)
        window = len(LinRep(P, Q, p).index_set)
        assert d.state_count <= p**window


def test_engine_agreement_small():
    for name, p in (("catalan", 2), ("motzkin", 3), ("trinomial", 5)):
        P, Q = preset(name)
        rep = LinRep(P, Q, p)
        fwd = build_forward(P, Q, p)
        rev = build_reverse(rep)
        want = oracle.sequence(P, Q, p, 300)
        assert [fwd.run(n) for n in range(300)] == want
        assert [rev.run(n, row=rep.row_Q) for n in range(300)] == want
        assert [rep.eval_term(n) for n in range(300)] == want


def test_export_walnut_pascal():
    P, _ = preset("pascal")
    d = build_forward(P, one, 2)
    text = d.export("walnut")
    assert text.startswith("lsd_2\n")
    blocks = text.rstrip("\n").split("\n\n")
    assert len(blocks) == 1 + d.state_count
    assert blocks[1].splitlines() == ["0 1", "0 -> 0", "1 -> 1"]
    assert blocks[2].splitlines() == ["1 0", "0 -> 1", "1 -> 1"]
    assert "\r" not in text


def test_export_reverse_is_msd_labeled():
    P, Q = preset("motzkin")
    d = build_reverse(LinRep(P, Q, 3))
    assert d.export("walnut").startswith("msd_3\n")


def test_export_deterministic():
    P, Q = preset("motzkin")
    a = build_forward(P, Q, 3).export("walnut")
    b = build_forward(P, Q, 3).export("walnut")
    assert a == b
    assert build_forward(P, Q, 3).export("dot") == build_forward(P, Q, 3).export("dot")


def test_export_dot_node_lines():
    P, Q = preset("catalan")
    d = build_forward(P, Q, 2)
    lines = d.export("dot").splitlines()
    node_lines = [ln for ln in lines if "[label=" in ln and "->" not in ln]
    assert len(node_lines) == d.state_count


def test_export_unknown_format():
    P, _ = preset("pascal")
    with pytest.raises(ValueError):
        build_forward(P, one, 2).export("xml")


def test_state_cap():
    P, Q = preset("motzkin")
    with pytest.raises(ResourceLimitError):
        build_forward(P, Q, 3, state_cap=1)
