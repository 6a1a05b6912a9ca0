"""Named evaluation routes producing the same sequence.

Every route returns the first N values of ct(P^n Q) mod p^a.  They are
deliberately different code paths over the same mathematics, so the
test suite can demand exact agreement between all of them and the
brute-force oracle.  The one exception: for a > 1, ``morphism`` and
``primepower`` share one route, the letter stream of the stable base
read through TildeReduction.prefix.  Only for a = 1 does ``morphism``
build its own stream on P.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .linrep import LinRep, digits_lsd
from .morphism import MorphicStream
from .primepower import build_reduction

ENGINE_NAMES = ("linrep", "dfao", "dfao-reverse", "morphism", "primepower", "oracle")


def sequence(P, Q, p, a, count, engine="linrep", red=None, **oracle_opts):
    """The first ``count`` terms via the named engine."""
    if engine == "oracle":
        return oracle.sequence(P, Q, p**a, count, **oracle_opts)
    if red is None:
        red = build_reduction(P, Q, p, a)
    if engine == "linrep":
        return red.terms(range(count))
    if engine == "primepower":
        return red.prefix(count)
    if engine == "morphism":
        if a == 1:
            rep = LinRep(P, Q, p, 1)
            return MorphicStream(rep).coded_prefix(rep.row_Q, count)
        return red.prefix(count)
    if engine == "dfao":
        return _forward_runs(red, count)
    if engine == "dfao-reverse":
        return _reverse_runs(red, count)
    raise ValueError(
        "unknown engine %r (expected one of %s)" % (engine, "/".join(ENGINE_NAMES))
    )


def _forward_runs(red, count):
    """Walk the forward automata, materializing transitions on demand.

    The transition map and outputs are exactly those of build_forward;
    laziness matters because the full closure can dwarf the handful of
    states a bounded prefix ever visits.  The residue machines run in
    lockstep (their rows are stacked into one matrix per state), which
    turns each transition into a single matrix product.
    """
    rep = red.tilde_rep
    mod = rep.modulus
    gammas = rep.all_gammas()
    c_index = rep.index_set.constant_index
    ids = {}
    mats = []
    trans = []

    def intern(mat):
        key = mat.tobytes()
        sid = ids.get(key)
        if sid is None:
            sid = len(mats)
            ids[key] = sid
            mats.append(mat)
            trans.append([None] * rep.p)
        return sid

    seeds = np.stack([rep.row_vector(q) for q in red.reduced_codings[0]])
    start = intern(seeds)
    blocks = red.block_count
    out = []
    for n in range(count):
        sid = start
        for d in digits_lsd(n // blocks, rep.p):
            nxt = trans[sid][d]
            if nxt is None:
                nxt = intern(mats[sid] @ gammas[d] % mod)
                trans[sid][d] = nxt
            sid = nxt
        out.append(int(mats[sid][n % blocks, c_index]))
    return out


def _reverse_runs(red, count):
    """Walk the reverse automaton lazily (digits most significant first)."""
    rep = red.tilde_rep
    mod = rep.modulus
    gammas = rep.all_gammas()
    ids = {}
    vecs = []
    trans = []

    def intern(vec):
        key = tuple(int(x) for x in vec)
        sid = ids.get(key)
        if sid is None:
            sid = len(vecs)
            ids[key] = sid
            vecs.append(np.array(key, dtype=np.int64))
            trans.append([None] * rep.p)
        return sid

    start = intern(rep.v0)
    blocks = red.block_count
    rows = red.block_rows
    out = []
    for n in range(count):
        sid = start
        for d in reversed(digits_lsd(n // blocks, rep.p)):
            nxt = trans[sid][d]
            if nxt is None:
                nxt = intern(gammas[d] @ vecs[sid] % mod)
                trans[sid][d] = nxt
            sid = nxt
        out.append(int(rows[n % blocks] @ vecs[sid] % mod))
    return out
