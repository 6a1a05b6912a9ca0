"""Howell coordinates of the reach module, spanned by the window vectors
V(n), and of the forward module, spanned by the coding rows."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctseq import engines, oracle, reduced
from ctseq.dfao import build_forward
from ctseq.errors import ResourceLimitError
from ctseq.laurent import LaurentPoly
from ctseq.primepower import build_reduction
from ctseq.textio import preset


@st.composite
def _cases(draw):
    r = draw(st.integers(1, 3))
    span = (2, 1, 1)[r - 1]
    exps = st.tuples(*[st.integers(-span, span)] * r)
    coeffs = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    Q = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, max_size=3)))
    if r == 1 and draw(st.booleans()):
        # Pascal and Catalan mod 2^a have a stable base with ell > 0
        P = preset(draw(st.sampled_from(("pascal", "catalan"))))[0]
        return P, Q, 2, draw(st.sampled_from((2, 3)))
    P = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # deg P~ can reach p^(a-1) deg P; keep the window near 125 entries
    bound = lambda a: (2 * p ** (a - 1) * max(P.degree(), 1) + 1) ** r
    a = draw(st.sampled_from([a for a in (1, 2, 3) if a == 1 or bound(a) <= 130]))
    return P, Q, p, a


@settings(max_examples=60, deadline=None)
@given(_cases(), st.randoms(use_true_random=False))
def test_reach_module_coordinates(case, rnd):
    P, Q, p, a = case
    with pytest.MonkeyPatch.context() as mp:
        # small windows take the Howell basis too
        mp.setattr(reduced, "_IDENTITY_WINDOW", 0)
        _check_coordinates(P, Q, p, a, rnd)


def _check_coordinates(P, Q, p, a, rnd):
    red = build_reduction(P, Q, p, a)
    rep, mod = red.tilde_rep, p**a
    module = rep.reach_module()
    basis, d = module.basis, module.rank
    assert basis is not None and basis.shape == (d, len(rep.index_set))
    # gamma(k) H^T = H^T C(k): every image of a row lies in the module
    for k, c in enumerate(module.maps):
        gamma = np.asarray(rep.gamma(k), dtype=np.int64)
        assert np.array_equal(gamma @ basis.T % mod, basis.T @ c.astype(np.int64) % mod)
    _check_canonical(module, rnd)
    assert np.array_equal(module.vectors(module.start[None]), rep.v0[None])
    # every route in coordinates equals the oracle
    n = 80
    want = oracle.sequence(P, Q, mod, n)
    assert [red.term(i) for i in range(n)] == want
    assert red.terms(range(n)) == want
    assert red.prefix(n) == want
    assert engines.sequence(P, Q, p, a, n, "dfao-reverse", red=red) == want


def _check_canonical(module, rnd):
    """Arbitrary coordinates reduce to canonical ones of the same vector,
    canonical ones are fixed, and equal vectors have equal coordinates."""
    mod, d = module.modulus, module.rank
    y = np.array([[rnd.randrange(-3 * mod, 3 * mod) for _ in range(d)]
                  for _ in range(60)], dtype=np.int64).reshape(60, d)
    canon = module.reduce(y.copy())
    vectors = module.vectors(canon)
    assert np.array_equal(module.vectors(y % mod), vectors)
    assert np.array_equal(module.reduce(canon.copy()), canon)
    same_vector = (vectors[:, None] == vectors[None]).all(axis=2)
    same_key = (canon[:, None] == canon[None]).all(axis=2)
    assert np.array_equal(same_vector, same_key)


@settings(max_examples=60, deadline=None)
@given(_cases(), st.randoms(use_true_random=False))
# Q = 0 spans the zero module, of rank 0
@example((LaurentPoly(1, {(0,): -4, (1,): -4}), LaurentPoly.zero(1), 5, 3),
         random.Random(0))
# the machine of Q passes the state cap
@example((LaurentPoly(1, {(-2,): -4, (0,): -4, (1,): -4}), LaurentPoly(1, {(0,): -4}), 7, 2),
         random.Random(0))
def test_forward_module_coordinates(case, rnd):
    P, Q, p, a = case
    span, built = reduced.span, []
    with pytest.MonkeyPatch.context() as mp:
        # every forward automaton is built on the module its row spans
        mp.setattr(reduced, "_FORWARD_WINDOW", 0)
        mp.setattr(reduced, "span", lambda *args, **kw: built.append(
            (args[1], span(*args, **kw))) or built[-1][1])
        red = build_reduction(P, Q, p, a)
        rep, mod = red.tilde_rep, p**a
        # one forward machine per residue of the index mod p^(a-1); one
        # over the state cap has still built its module (the closure
        # tests check that the cap is met on full window vectors too)
        machines = []
        for q in red.reduced_codings[0]:
            try:
                machines.append(build_forward(red.p_tilde, q, p, mod, rep=rep))
            except ResourceLimitError:
                machines.append(None)
    if None not in machines:
        n = 80
        got = [machines[i % red.block_count].run(i // red.block_count)
               for i in range(n)]
        assert got == oracle.sequence(P, Q, mod, n)
        assert got == engines.sequence(P, Q, p, a, n, "dfao", red=red)
    assert len(built) == len(machines)
    for row, module in built:
        basis, d = module.basis, module.rank
        assert basis is not None and basis.shape == (d, len(rep.index_set))
        # H gamma(k) = D(k) H: every image of a row lies in the module
        for k, c in enumerate(module.maps):
            gamma = np.asarray(rep.gamma(k), dtype=np.int64)
            assert np.array_equal(basis @ gamma % mod, c.astype(np.int64) @ basis % mod)
        _check_canonical(module, rnd)
        assert np.array_equal(module.vectors(module.start[None]), row[None] % mod)


def test_threads_share_one_module():
    # ten threads race to make the first term call on one Apery mod-25
    # reduction; the module is built once, under the LinRep's lock
    P, Q = preset("apery")
    ns = [17 + 3 * t for t in range(10)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduced, "_IDENTITY_WINDOW", 10**9)  # full window vectors
        want = build_reduction(P, Q, 5, 2).terms(ns)
    built = []
    reach = reduced.reach
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reduced.reach = lambda rep: built.append(rep) or reach(rep)
        for trial in range(3):
            red = build_reduction(P, Q, 5, 2)
            red.tilde_rep.all_gammas()
            start = threading.Barrier(10, timeout=60)
            got, modules = [None] * 10, [None] * 10

            def work(t):
                start.wait()
                got[t] = red.term(ns[t])
                modules[t] = red.tilde_rep.reach_module()

            threads = [threading.Thread(target=work, args=(t,)) for t in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == want, trial
            assert modules[0].basis is not None
            assert all(m is modules[0] for m in modules), trial
            assert len(built) == trial + 1 and built[-1] is red.tilde_rep
    finally:
        reduced.reach = reach
        sys.setswitchinterval(interval)
