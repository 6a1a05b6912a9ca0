"""Each resource guard reads its module constant when it runs."""

import pytest

from ctseq import _dense, linrep, morphism, primepower
from ctseq.cli import main
from ctseq.errors import ResourceLimitError
from ctseq.linrep import LinRep, build_index
from ctseq.morphism import MorphicStream
from ctseq.primepower import TildeReduction, build_reduction
from ctseq.textio import preset

P, Q = preset("motzkin")

GUARDS = [
    (linrep, "DEFAULT_WINDOW_CAP", 2, lambda: build_index(P, [Q]),
     "window size 5 exceeds cap 2"),
    (linrep, "DEFAULT_DIGIT_CAP", 2, lambda: LinRep(P, Q, 3).all_gammas(),
     "materializing 3 digit matrices exceeds cap 2"),
    (_dense, "DEFAULT_DENSE_CAP", 5, lambda: build_reduction(P, Q, 3, 2),
     "dense power chain needs 7 cells, cap is 5"),
    (primepower, "DEFAULT_BLOCK_CAP", 2, lambda: TildeReduction(P, [Q], 3, 2),
     r"p\^\(a-1\) = 3 residue classes exceed cap 2"),
    (morphism, "DEFAULT_PREFIX_CAP", 100,
     lambda: MorphicStream(LinRep(P, Q, 3)).extend(101),
     "prefix length 101 exceeds cap 100"),
]


@pytest.mark.parametrize("module, name, cap, call, message", GUARDS,
                         ids=[g[1] for g in GUARDS])
def test_guard_reads_its_constant(monkeypatch, module, name, cap, call, message):
    call()  # passes under the shipped cap
    monkeypatch.setattr(module, name, cap)
    with pytest.raises(ResourceLimitError, match="^%s$" % message):
        call()


def test_lowered_guard_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(linrep, "DEFAULT_DIGIT_CAP", 2)
    assert main(["classify", "--poly", "@motzkin", "-p", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "resource limit: materializing 3 digit matrices exceeds cap 2\n")
    assert captured.out == ""
