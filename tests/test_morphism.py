import random

import numpy as np
import pytest

from ctseq import morphism, oracle
from ctseq.laurent import LaurentPoly
from ctseq.linrep import LinRep
from ctseq.morphism import MorphicStream
from ctseq.textio import parse_poly, preset

one = LaurentPoly.one(1)


def test_extend_trinomial_mod2():
    P, _ = preset("trinomial")
    stream = MorphicStream(LinRep(P, one, 2))
    stream.extend(8)
    assert [stream.letters[i] for i in stream.prefix[:8]] == [(1,)] * 8


def test_extend_pascal_coded():
    P, _ = preset("pascal")
    rep = LinRep(P, one, 2)
    stream = MorphicStream(rep)
    got = stream.coded_prefix(rep.row_Q, 64)
    assert got == [1] + [0] * 63
    assert got == oracle.sequence(P, one, 2, 64)


def test_prefix_power_block_is_iterated_image():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    stream = MorphicStream(rep).extend(27)
    letters = stream.letters
    # applying the morphism letterwise to a prefix of length L gives length pL
    expanded = []
    for letter in stream.prefix[:9]:
        u = np.array(letters[letter])
        expanded.extend(tuple((g @ u % rep.modulus).tolist()) for g in rep.all_gammas())
    assert expanded == [letters[i] for i in stream.prefix[:27]]


def test_letters_match_state_vectors():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    stream = MorphicStream(rep)
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randrange(500)
        assert stream.state_vector(n).entries == rep.state_vector(n).entries


def test_state_vector_refuses_negative_index():
    P, Q = preset("motzkin")
    stream = MorphicStream(LinRep(P, Q, 3))
    with pytest.raises(ValueError, match="index must be >= 0"):
        stream.state_vector(-1)
    assert len(stream) == 1


def test_coded_prefix_motzkin():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    assert MorphicStream(rep).coded_prefix(rep.row_Q, 6) == [1, 1, 2, 1, 0, 0]


def test_coded_prefix_with_unit_row():
    P, _ = preset("trinomial")
    rep = LinRep(P, one, 3)
    got = MorphicStream(rep).coded_prefix(rep.v0, 30)
    assert got == oracle.sequence(P, one, 3, 30)


def test_coded_prefix_catalan_mod2():
    P, Q = preset("catalan")
    rep = LinRep(P, Q, 2)
    assert MorphicStream(rep).coded_prefix(rep.row_Q, 8) == [1, 1, 0, 1, 0, 0, 0, 1]


def test_coded_prefix_against_oracle():
    for name in ("pascal", "catalan", "motzkin", "trinomial"):
        P, Q = preset(name)
        for p in (2, 3, 5):
            rep = LinRep(P, Q, p)
            got = MorphicStream(rep).coded_prefix(rep.row_Q, 600)
            assert got == oracle.sequence(P, Q, p, 600), (name, p)


def test_row_length_validation():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    with pytest.raises(ValueError):
        MorphicStream(rep).coded_prefix([1, 2], 4)


def test_prefix_cap(monkeypatch):
    monkeypatch.setattr(morphism, "DEFAULT_PREFIX_CAP", 100)
    P, Q = preset("motzkin")
    stream = MorphicStream(LinRep(P, Q, 3))
    with pytest.raises(Exception):
        stream.extend(101)
