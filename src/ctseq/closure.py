"""Window vectors reached under the p digit maps, each numbered once.

Verdicts, automata, the lazy engine runs and the letter stream walk
vectors under v -> v @ gamma(k) (forward) or v -> gamma(k) @ v
(reverse), and all number them through one ``Interner``.  A walk runs
in the coordinates of a reduced.Module, where a state is its canonical
coordinates: reverse walks on the reach module of their LinRep, under
y -> C(k) @ y; the forward automaton, on wide windows, on the module
its coding row spans, under y -> y @ D(k); and the lazy forward engine
on the whole window.
``Interner.blocks`` walks a closure a block of the queue at a time and
can be stopped after any block; ``close`` runs it to the end.
``Interner.step`` computes only the transitions a lazy walk asks for.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError

# states are keyed by packed integers while modulus^|T| stays below this
_PACK_LIMIT = 2**63
# candidate entries per block of the queue: an eighth of what the states
# found so far would give, within these bounds, so small closures keep
# small temporaries and large ones need few inserts into the seen keys
_BLOCK_ENTRIES = (2**16, 2**20)


def _keys(rows, modulus, store):
    """One sortable key per int64 row: its entries packed as base-modulus
    digits, or else its bytes in the ``store`` dtype (numpy strips
    trailing NULs, which stays injective on rows of one length).  Rows
    of width 0 all pack to 0."""
    width = rows.shape[1]
    if modulus**width < _PACK_LIMIT or not width:
        return rows @ modulus ** np.arange(width, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=store)
    return rows.view("S%d" % (width * rows.itemsize)).ravel()


class Interner:
    """The vectors met so far, numbered in the order they were met.

    ``starts`` (coordinates, a vector or a stack, ids in ``self.starts``)
    and the module's maps hold residues in their LinRep's dtype, which
    keeps products exact; every product is made canonical by
    ``module.reduce``, so equal vectors get equal keys.
    ``states[:count]`` holds the coordinates in the smallest unsigned dtype
    holding a residue, ``table[s, k]`` the id of s's image under digit k
    (-1 while unknown), and the arrays in ``origin`` hold, in id order,
    parent * p + digit of the step that first reached each (-p: a start).
    Growth replaces ``states``, so an id below ``count`` finds its row.
    """

    def __init__(self, starts, module, forward, state_cap=np.inf,
                 what="closure"):
        starts = np.atleast_2d(starts)
        self.maps, self.reduce, self.forward = module.maps, module.reduce, forward
        self.modulus = modulus = module.modulus
        self.state_cap, self.what, self.dtype = state_cap, what, starts.dtype
        self.store = np.min_scalar_type(modulus - 1)
        size = max(1, min(state_cap, 64))
        self.states = np.empty((size, starts.shape[1]), dtype=self.store)
        self.states[0] = starts[0]
        self.table = np.full((size, len(self.maps)), -1)
        self.seen = _keys(self.states[:1].astype(np.int64), modulus, self.store)
        self.seen_ids = np.zeros(1, dtype=np.int64)
        p = len(self.maps)
        self.origin, self.count = [np.array([-p])], 1
        self.starts = np.zeros(len(starts), dtype=np.int64)
        if len(starts) > 1:
            self.starts = self.intern(starts.astype(np.int64), np.full(len(starts), -p))

    def intern(self, cand, origin):
        """The id of every row of ``cand`` (int64 residues), numbering
        unseen ones by first occurrence; ``origin`` is parent * p + digit
        for every row.  Distinct keys are binary-searched in the sorted
        seen keys; new ones are inserted in one pass."""
        uniq, inverse = np.unique(_keys(cand, self.modulus, self.store),
                                  return_inverse=True)
        first = np.full(len(uniq), len(cand))
        np.minimum.at(first, inverse, np.arange(len(cand)))
        pos = np.searchsorted(self.seen, uniq)
        hit = self.seen[np.minimum(pos, len(self.seen) - 1)] == uniq
        ids = np.full(len(uniq), -1)
        ids[hit] = self.seen_ids[pos[hit]]
        new = np.flatnonzero(~hit)
        count, added = self.count, new.size
        if not added:
            return ids[inverse]
        if count + added > self.state_cap:
            raise ResourceLimitError("%s exceeds %d states" % (
                self.what, self.state_cap), states=self.state_cap)
        by_first = new[np.argsort(first[new])]
        ids[by_first] = np.arange(count, count + added)
        self.seen = np.insert(self.seen, pos[new], uniq[new])
        self.seen_ids = np.insert(self.seen_ids, pos[new], ids[new])
        size = len(self.states)
        if count + added > size:
            grown = min(self.state_cap, max(2 * size, count + added))
            self.states = np.resize(self.states, (grown, self.states.shape[1]))
            self.table = np.resize(self.table, (grown, len(self.maps)))
            self.table[size:] = -1
        at = first[by_first]
        self.states[count:count + added] = cand[at]
        self.origin.append(origin[at])
        self.count += added
        return ids[inverse]

    def step(self, ids, digits):
        """The ids reached from states ``ids`` by ``digits``.  Unknown
        transitions are computed once per distinct (state, digit) pair,
        one product per digit, numbering new states in pair order."""
        out = self.table[ids, digits]
        miss = np.flatnonzero(out < 0)
        if miss.size:
            pairs, back = np.unique(ids[miss] * len(self.maps) + digits[miss],
                                    return_inverse=True)
            parents, ks = np.divmod(pairs, len(self.maps))
            cand = np.empty((len(pairs), self.states.shape[1]), dtype=np.int64)
            # the digits present; np.unique without return flags imports numpy.ma
            for k in np.flatnonzero(np.bincount(ks)):
                sel = np.flatnonzero(ks == k)
                rows, g = self.states[parents[sel]].astype(self.dtype), self.maps[k]
                cand[sel] = rows @ g if self.forward else (g @ rows.T).T
            self.reduce(cand)
            found = self.intern(cand, pairs)
            self.table[parents, ks] = found
            out[miss] = found[back]
        return out

    def blocks(self):
        """Close the walk breadth first, a block of the queue at a time,
        yielding after each block the id of its first new state, so a
        caller may stop at any block.  A block's candidates come in
        (parent, digit) order, which numbers states as the
        one-state-at-a-time FIFO walk does."""
        p, width = len(self.maps), self.states.shape[1]
        done = 0
        while done < self.count:
            lo, hi = _BLOCK_ENTRIES
            # a module of rank 0 has rows of width 0
            entries = max(1, p * width)
            rows = max(1, min(max(lo, self.count * entries // 8), hi) // entries)
            block = self.states[done:min(self.count, done + rows)].astype(self.dtype)
            cand = np.empty((len(block), p, width), dtype=np.int64)
            for k, g in enumerate(self.maps):
                cand[:, k] = block @ g if self.forward else (g @ block.T).T
            cand = self.reduce(cand.reshape(len(block) * p, width))
            first = self.count
            ids = self.intern(cand, np.arange(done * p, done * p + len(cand)))
            self.table[done:done + len(block)] = ids.reshape(-1, p)
            done += len(block)
            yield first

    def links(self):
        """(parent, digit): state s > 0 was first reached from
        ``parent[s]`` by digit ``digit[s]``."""
        return np.divmod(np.concatenate(self.origin), len(self.maps))


def close(start, module, forward, state_cap, what):
    """(states, transitions) of the closure of ``start``, the states in
    the coordinates of ``module``.

    ``forward`` applies ``rows @ g``, otherwise ``(g @ rows.T).T``, so
    SparseDigitMap windows work through their 2-D products.  Over
    ``state_cap`` states raise ResourceLimitError.
    """
    walk = Interner(start, module, forward, state_cap, what)
    for _ in walk.blocks():
        pass
    return walk.states[:walk.count], walk.table[:walk.count]
