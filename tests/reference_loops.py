"""One-state-at-a-time FIFO closures, kept as references for closure.close.

These are the loops that classify.reachable_states, dfao.build_forward
and dfao.build_reverse ran before they were rebuilt on closure.close.
Each interns one state at a time under a tuple key; tests diff the
vectorized closure against them.
"""

from collections import deque

import numpy as np

from ctseq.errors import ResourceLimitError
from ctseq.laurent import LaurentPoly
from ctseq.textio import format_poly


def reachable_states(rep, state_cap):
    """(states, witness_n0, nonzero_ct_off_origin) by the FIFO loop."""
    p = rep.p
    mod = rep.modulus
    gammas = rep.all_gammas()
    c_index = rep.index_set.constant_index
    start = tuple(int(x) for x in rep.v0)
    ids = {start: 0}
    states = [start]
    values = [0]  # least index n with V(n) equal to this state
    witness = None
    queue = deque([0])
    while queue:
        s = queue.popleft()
        vec = np.array(states[s], dtype=np.int64)
        for k in range(p):
            new = tuple(int(x) for x in gammas[k] @ vec % mod)
            if new not in ids:
                t = len(states)
                if t >= state_cap:
                    raise ResourceLimitError(
                        "reachable set exceeds %d states" % state_cap, states=t
                    )
                ids[new] = t
                states.append(new)
                values.append(values[s] * p + k)
                if witness is None and new[c_index] % p == 0:
                    witness = values[t]
                queue.append(t)
    seen = set()
    frontier = deque()
    for s in range(len(states)):
        vec = np.array(states[s], dtype=np.int64)
        for k in range(1, p):
            t = ids[tuple(int(x) for x in gammas[k] @ vec % mod)]
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    off_origin_unit = False
    while frontier:
        s = frontier.popleft()
        if states[s][c_index] % p != 0:
            off_origin_unit = True
            break
        vec = np.array(states[s], dtype=np.int64)
        for k in range(p):
            t = ids[tuple(int(x) for x in gammas[k] @ vec % mod)]
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return states, witness, off_origin_unit


def _automaton(rep, start, act, what, state_cap):
    """(states, transitions, outputs) of the FIFO closure under ``act``."""
    mod = rep.modulus
    c_index = rep.index_set.constant_index
    start = tuple(int(x) for x in start)
    ids = {start: 0}
    rows = [start]
    transitions = []
    queue = deque([0])
    while queue:
        s = queue.popleft()
        row = np.array(rows[s], dtype=np.int64)
        dests = []
        for g in rep.all_gammas():
            new = tuple(int(x) for x in act(row, g) % mod)
            t = ids.get(new)
            if t is None:
                t = len(rows)
                if t >= state_cap:
                    raise ResourceLimitError(
                        "%s automaton exceeds %d states" % (what, state_cap)
                    )
                ids[new] = t
                rows.append(new)
                queue.append(t)
            dests.append(t)
        transitions.append(dests)
    return rows, transitions, [int(r[c_index]) for r in rows]


def _poly_from_row(row, index_set, nvars, modulus):
    terms = {}
    for pos, c in enumerate(row):
        if c:
            terms[index_set.vectors[pos]] = int(c)
    return LaurentPoly(nvars, terms, modulus)


def build_forward(rep, Q, state_cap):
    """(transitions, outputs, labels) of the forward automaton."""
    rows, transitions, outputs = _automaton(
        rep, rep.row_vector(Q), lambda row, g: row @ g, "forward", state_cap)
    labels = [format_poly(_poly_from_row(r, rep.index_set, rep.P.nvars,
                                         rep.modulus)) for r in rows]
    return transitions, outputs, labels


def build_reverse(rep, state_cap):
    """(state vectors, transitions, outputs, labels) of the reverse automaton."""
    vecs, transitions, outputs = _automaton(
        rep, rep.v0, lambda vec, g: g @ vec, "reverse", state_cap)
    labels = ["(%s)" % ",".join(str(x) for x in v) for v in vecs]
    return vecs, transitions, outputs, labels
