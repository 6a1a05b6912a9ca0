"""Finite automata with output for constant term sequences.

The forward automaton starts from Q and follows Q -> section of P^k Q
on digit k, consuming the index least significant digit first; each
state outputs its constant term.  The reverse automaton has the window
vectors V(i) as states with transitions V -> gamma(k).V; it yields V(n)
when fed the digits of n most significant first (it reads the forward
input in reverse, hence the name), and its output is the constant entry,
optionally coded by an explicit row vector.
"""

from __future__ import annotations

import numpy as np

from . import reduced
from .closure import close
from .laurent import LaurentPoly
from .linrep import LinRep, digits_lsd

DEFAULT_STATE_CAP = 50_000

_EXPORT_FORMATS = ("dot", "walnut")
# states formatted by one % in an export, so that the tuple of Python ints
# it reads stays small next to the text
_EXPORT_SLICE = 4096


def _format_states(template, cells):
    """``template`` formatted once per state from that state's row of the
    int array ``cells``, as one string per slice of states."""
    out = []
    for lo in range(0, len(cells), _EXPORT_SLICE):
        rows = cells[lo:lo + _EXPORT_SLICE]
        out.append(template * len(rows) % tuple(rows.ravel().tolist()))
    return out


class Dfao:
    """A complete automaton over digits 0..p-1 with per-state outputs.

    ``table`` (s, p) holds the id reached from state s by digit k and
    ``outputs`` the output of every state, both as integer arrays; the
    exporters format them a section at a time.  ``transitions`` and
    ``outputs`` read them as lists of Python ints, built on first read.
    """

    __slots__ = (
        "p",
        "modulus",
        "direction",
        "initial",
        "_table",
        "_outputs",
        "_transitions",
        "_output_list",
        "_labels",
        "_vectors",
    )

    def __init__(self, p, modulus, direction, table, outputs,
                 state_labels, state_vectors=None):
        self.p = p
        self.modulus = modulus
        self.direction = direction
        self.initial = 0
        self._table = np.asarray(table)
        self._outputs = np.asarray(outputs)
        self._transitions = self._output_list = None
        self._labels = state_labels
        self._vectors = state_vectors

    @property
    def transitions(self):
        """transitions[s][k]: the state reached from s by digit k."""
        if self._transitions is None:
            self._transitions = self._table.tolist()
        return self._transitions

    @property
    def outputs(self):
        """The output of every state."""
        if self._output_list is None:
            self._output_list = self._outputs.tolist()
        return self._output_list

    @property
    def state_labels(self):
        """One label per state; a callable passed for them runs on first read."""
        if callable(self._labels):
            self._labels = self._labels()
        return self._labels

    @property
    def state_vectors(self):
        """The reverse machine's window vectors, as tuples; a callable
        passed for them runs on first read."""
        if callable(self._vectors):
            self._vectors = self._vectors()
        return self._vectors

    @property
    def state_count(self):
        return len(self._table)

    def run_digits(self, digits, row=None):
        """Consume an explicit digit word in the machine's own order."""
        state, p = self.initial, self.p
        table = self.transitions
        for d in digits:
            if not 0 <= d < p:
                raise ValueError("digit %r outside 0..%d" % (d, p - 1))
            state = table[state][d]
        if self.direction == "reverse" and row is not None:
            row = np.asarray(row, dtype=np.int64)
            vec = np.array(self.state_vectors[state], dtype=np.int64)
            return int(row @ vec % self.modulus)
        return self.outputs[state]

    def run(self, n, row=None):
        """The sequence value at index n >= 0.

        The forward machine consumes the base-p digits of n least
        significant first; the reverse machine consumes them most
        significant first.  Either way the result is the value at n.
        """
        digits = digits_lsd(n, self.p)
        if self.direction == "reverse":
            digits = list(reversed(digits))
        return self.run_digits(digits, row)

    def export(self, format):  # noqa: A002 - external interface name
        if format == "walnut":
            return self._export_walnut()
        if format == "dot":
            return self._export_dot()
        raise ValueError(
            "unknown export format %r (expected one of %s)"
            % (format, "/".join(_EXPORT_FORMATS))
        )

    def _export_walnut(self):
        # one block per state: "<s> <output>", then "<k> -> <target>" per digit
        n, p = self._table.shape
        cells = np.empty((n, p + 2), dtype=np.int64)
        cells[:, 0] = np.arange(n)
        cells[:, 1] = self._outputs
        cells[:, 2:] = self._table
        block = "\n\n%d %d" + "".join("\n%d -> %%d" % k for k in range(p))
        order = "lsd" if self.direction == "forward" else "msd"
        return "".join(["%s_%d" % (order, p), *_format_states(block, cells), "\n"])

    def _export_dot(self):
        # the node lines, then one edge line per state and digit
        n, p = self._table.shape
        ids = np.arange(n)
        nodes = np.stack([ids, ids, self._outputs], axis=1)
        edges = np.empty((n, p, 2), dtype=np.int64)
        edges[:, :, 0] = ids[:, None]
        edges[:, :, 1] = self._table
        edge = "".join('\n  %%d -> %%d [label="%d"];' % k for k in range(p))
        return "".join(["digraph {", *_format_states('\n  %d [label="%d/%d"];', nodes),
                        *_format_states(edge, edges), "\n}\n"])

    def __repr__(self):
        return "<Dfao %s p=%d states=%d>" % (
            self.direction, self.p, self.state_count,
        )


def build_forward(P, Q, p, modulus=None, state_cap=DEFAULT_STATE_CAP, rep=None):
    """Close {Q} under Q -> section of P^k Q over all digits k.

    ``modulus`` defaults to p.  For a modulus p^a with a > 1 the caller
    must supply a stable base (see primepower.build_reduction); with the
    default prime modulus any P is valid.  States are explored breadth
    first with digits ascending, so the numbering is reproducible.
    Transitions are computed through the window matrices; the agreement
    with the direct section-operator map is covered by the duality tests.
    Windows over reduced._FORWARD_WINDOW entries close Q's row in the
    coordinates of the module it spans (reduced.span), built per call;
    outputs are read from them and labels rebuilt when first read.
    """
    if rep is None:
        if modulus is None:
            modulus = p
        a = reduced.valuation(modulus, p) if modulus > 1 and p > 1 else 0
        if a == 0 or modulus != p**a:
            raise ValueError("modulus %d is not a power of %d" % (modulus, p))
        rep = LinRep(P, Q, p, a)
    from .textio import format_poly

    mod = rep.modulus
    vectors, nvars = rep.index_set.vectors, rep.P.nvars
    row = rep.row_vector(Q)
    if len(rep.index_set) > reduced._FORWARD_WINDOW:
        module = reduced.span(rep, row, forward=True)
        row = module.start
    else:
        module = reduced.Module(rep)
    states, table = close(row, module, True, state_cap, "forward automaton")

    def labels():
        return [format_poly(LaurentPoly(
            nvars, {vectors[i]: c for i, c in enumerate(vec) if c}, mod))
            for vec in module.vectors(states).tolist()]

    return Dfao(rep.p, mod, "forward", table, module.constants(states), labels)


def build_reverse(rep, state_cap=DEFAULT_STATE_CAP):
    """Close {V(0)} under V -> gamma(k).V over all digits k, on the
    reach module; the window vectors are rebuilt when first read."""
    module = rep.reach_module()
    states, table = close(module.start, module, False, state_cap,
                          "reverse automaton")

    def vectors():
        return list(zip(*module.vectors(states).T.tolist()))

    machine = Dfao(rep.p, rep.modulus, "reverse", table,
                   module.constants(states),
                   lambda: ["(%s)" % ",".join(map(str, v)) for v in machine.state_vectors],
                   state_vectors=vectors)
    return machine
