"""Named evaluation routes producing the same sequence.

Every route returns the first N values of ct(P^n Q) mod p^a.  They are
deliberately different code paths over the same mathematics, so the
test suite can demand exact agreement between all of them and the
brute-force oracle.  The exceptions: ``dfao-reverse`` and ``morphism``
are aliases of ``primepower``, one route, the letter stream of the
stable base read through TildeReduction.prefix.  The stream is the
lazy reverse automaton's run on every index at once, as
V(pm + k) = gamma(k) V(m).

For N terms ``linrep`` takes one product per digit value and position
per 256 indices, ``dfao`` one closure.Interner.step per digit position
over all N indices, and ``primepower`` (with its aliases) one step per
level of the letter stream.  Every route but ``dfao`` runs on the reach
module (LinRep.reach_module), whose products are d x d for a module of
rank d; the module is built once per LinRep, from all digit maps, by
the first route that needs it.  ``dfao`` walks full window vectors with
|T| x |T| products and no Howell module, unlike dfao.build_forward, so
it checks the module routes independently.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .closure import Interner
from .primepower import build_reduction
from .reduced import Module

ENGINE_NAMES = ("linrep", "dfao", "dfao-reverse", "morphism", "primepower", "oracle")


def sequence(P, Q, p, a, count, engine="linrep", red=None):
    """The first ``count`` terms via the named engine."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if engine == "oracle":
        return oracle.sequence(P, Q, p**a, count)
    if red is None:
        red = build_reduction(P, Q, p, a)
    if engine == "linrep":
        return red.terms(range(count))
    if engine in ("dfao-reverse", "morphism", "primepower"):
        return red.prefix(count)
    if engine == "dfao":
        return _forward_runs(red, count)
    raise ValueError(
        "unknown engine %r (expected one of %s)" % (engine, "/".join(ENGINE_NAMES))
    )


def _forward_runs(red, count):
    """The forward automaton of build_forward, built lazily: the full
    closure can dwarf the states a prefix visits.  Index n starts at the
    coding row of n mod p^(a-1) and reads its quotient's digits least
    significant first; all indices advance together.
    """
    rep = red.tilde_rep
    walk = Interner(np.stack(red.block_rows), Module(rep), True)
    quotients, residues = np.divmod(np.arange(count), red.block_count)
    ids = walk.starts[residues]
    live = np.arange(count)
    while live.size:
        ids[live] = walk.step(ids[live], quotients[live] % rep.p)
        quotients[live] //= rep.p
        live = live[quotients[live] > 0]
    return walk.states[ids, rep.index_set.constant_index].tolist()
