"""One-state-at-a-time walks, kept as references for closure.py.

These are the loops that classify.reachable_states, dfao.build_forward
and dfao.build_reverse ran before they were rebuilt on closure.close,
and those that the lazy engine runs and the letter stream ran before
they were rebuilt on closure.Interner.step.  Each interns one state at
a time under a dict key; tests diff the vectorized walks against them.
``section_poly`` is the per-cell loop that DenseChain.section_poly ran
before it read the nonzeros in one pass, and ``settle_exponent`` the
matrix-power loop that LinRep.settle_exponent ran before its closed form.
"""

from collections import deque

import numpy as np

from ctseq.errors import ResourceLimitError
from ctseq.laurent import LaurentPoly
from ctseq.linrep import digits_lsd
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


def forward_runs(red, count):
    """engines.sequence(..., "dfao") by one lazy walk per index."""
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


def reverse_runs(red, count):
    """engines.sequence(..., "dfao-reverse") by one lazy walk per index."""
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


class MorphicStream:
    """The letter stream expanding one letter at a time."""

    def __init__(self, rep):
        self.rep = rep
        v0 = tuple(int(x) for x in rep.v0)
        self.letters = [v0]
        self._letter_ids = {v0: 0}
        self._images = {}  # letter id -> tuple of p letter ids
        self.prefix = [0]
        self._cursor = 0  # next prefix position to expand

    def _image_ids(self, letter_id):
        cached = self._images.get(letter_id)
        if cached is not None:
            return cached
        rep = self.rep
        vec = np.array(self.letters[letter_id], dtype=np.int64)
        ids = []
        for g in rep.all_gammas():
            w = tuple(int(x) for x in g @ vec % rep.modulus)
            wid = self._letter_ids.get(w)
            if wid is None:
                wid = len(self.letters)
                self.letters.append(w)
                self._letter_ids[w] = wid
            ids.append(wid)
        ids = tuple(ids)
        self._images[letter_id] = ids
        return ids

    def extend(self, n):
        prefix = self.prefix
        while len(prefix) < n:
            ids = self._image_ids(prefix[self._cursor])
            if self._cursor == 0:
                # prolongability: the first image letter is V(0) itself
                prefix.extend(ids[1:])
            else:
                prefix.extend(ids)
            self._cursor += 1
        return self

    def coded_prefix(self, row, n):
        self.extend(n)
        row = np.asarray(row, dtype=np.int64)
        mod = self.rep.modulus
        codes = [int(row @ np.array(w, dtype=np.int64) % mod) for w in self.letters]
        return [codes[i] for i in self.prefix[:n]]


def prefix(red, n):
    """TildeReduction.prefix by one coded prefix per residue, interleaved."""
    if n <= 0:
        return []
    blocks = red.block_count
    quotient_len = -(-n // blocks)
    stream = MorphicStream(red.tilde_rep)
    per_residue = [stream.coded_prefix(row, quotient_len) for row in red.block_rows]
    out = []
    for q in range(quotient_len):
        for k in range(blocks):
            if len(out) == n:
                return out
            out.append(per_residue[k][q])
    return out


def section_poly(chain, k):
    """DenseChain.section_poly by one Python step per nonzero cell."""
    starts = [(-chain.offset[i]) % k for i in range(chain.nvars)]
    view = chain.arr[tuple(slice(starts[i], None, k) for i in range(chain.nvars))]
    terms = {}
    for idx in zip(*np.nonzero(view)):
        e = tuple(
            (int(idx[i]) * k + starts[i] + chain.offset[i]) // k
            for i in range(chain.nvars)
        )
        terms[e] = int(view[idx])
    return LaurentPoly(chain.nvars, terms, chain.mod)


def settle_exponent(rep):
    """LinRep.settle_exponent by powering gamma(0) until it settles."""
    index = rep.index_set
    target = np.zeros((len(index), len(index)), dtype=np.int64)
    target[index.constant_index, index.constant_index] = 1
    bound = len(digits_lsd(max(index.m, 1), rep.p))
    g0 = rep.gamma(0)
    power = np.asarray(g0)
    for s in range(1, bound + 1):
        if np.array_equal(power, target):
            return s
        power = power @ g0 % rep.modulus
    raise AssertionError(
        "gamma(0)^s did not settle within the provable bound %d" % bound
    )
