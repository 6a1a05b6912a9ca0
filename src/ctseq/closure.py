"""Breadth-first closure of one vector under the p digit maps.

Verdicts and automata need every vector reachable from a start vector
under v -> v @ gamma(k) (forward) or v -> gamma(k) @ v (reverse),
numbered in the first-occurrence order of a FIFO walk with digits
ascending.  ``close`` takes a block of the queue at a time: each digit
map acts on the whole block by one product, the candidates come in
(parent, digit) order, and the new ones take the next numbers in that
order, which is exactly the numbering of the one-state-at-a-time walk.
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
    trailing NULs, which stays injective on rows of one length)."""
    width = rows.shape[1]
    if modulus**width < _PACK_LIMIT:
        return rows @ modulus ** np.arange(width, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=store)
    return rows.view("S%d" % (width * rows.itemsize)).ravel()


def close(start, gammas, modulus, forward, state_cap, what):
    """(states, transitions, parent, digit) of the closure of ``start``.

    ``forward`` applies ``rows @ g``, otherwise ``(g @ rows.T).T``, so
    SparseDigitMap windows work through their 2-D products.  ``start``
    and the maps hold residues in their LinRep's dtype, which keeps the
    products exact; images are reduced as int64.  ``states`` is (S, |T|)
    in the smallest unsigned dtype holding a residue, ``transitions`` is
    (S, p), and state s > 0 was first reached from ``parent[s]`` by
    ``digit[s]``.  More than ``state_cap`` states raise
    ResourceLimitError.  Each block's distinct keys are looked up in the
    sorted array of seen keys, and the new ones are inserted in one pass.
    """
    p, width = len(gammas), len(start)
    store = np.min_scalar_type(modulus - 1)
    states = np.empty((max(1, min(state_cap, 1024)), width), dtype=store)
    states[0] = start
    seen = _keys(states[:1].astype(np.int64), modulus, store)
    seen_ids = np.zeros(1, dtype=np.int64)
    parents, digits, transitions = [np.array([-1])], [np.array([0])], []
    count, done = 1, 0
    while done < count:
        lo, hi = _BLOCK_ENTRIES
        rows = max(1, min(max(lo, count * p * width // 8), hi) // (p * width))
        block = states[done:min(count, done + rows)].astype(start.dtype)
        cand = np.empty((len(block), p, width), dtype=np.int64)
        for k, g in enumerate(gammas):
            cand[:, k] = block @ g if forward else (g @ block.T).T
        cand = cand.reshape(-1, width)
        cand %= modulus
        uniq, inverse = np.unique(_keys(cand, modulus, store), return_inverse=True)
        first = np.full(len(uniq), len(cand))
        np.minimum.at(first, inverse, np.arange(len(cand)))
        pos = np.searchsorted(seen, uniq)
        hit = seen[np.minimum(pos, len(seen) - 1)] == uniq
        ids = np.full(len(uniq), -1)
        ids[hit] = seen_ids[pos[hit]]
        new = np.flatnonzero(~hit)
        if new.size:
            if count + new.size > state_cap:
                raise ResourceLimitError(
                    "%s exceeds %d states" % (what, state_cap), states=state_cap
                )
            by_first = new[np.argsort(first[new])]
            ids[by_first] = np.arange(count, count + new.size)
            seen = np.insert(seen, pos[new], uniq[new])
            seen_ids = np.insert(seen_ids, pos[new], ids[new])
            if count + new.size > len(states):
                grown = min(state_cap, max(2 * len(states), count + new.size))
                states = np.resize(states, (grown, width))
            at = first[by_first]
            states[count:count + new.size] = cand[at]
            parents.append(done + at // p)
            digits.append(at % p)
            count += new.size
        transitions.append(ids[inverse].reshape(-1, p))
        done += len(block)
    return (states[:count], np.concatenate(transitions),
            np.concatenate(parents), np.concatenate(digits))
