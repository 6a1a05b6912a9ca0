"""Spans around coarse ctseq entry points, recorded from outside.

``install(ctseq)`` replaces a fixed list of public functions and methods
with wrappers that record (name, parent, start, end) in memory and
count sizes read from public attributes.  Nothing inside ctseq is
edited; the wrappers live for the worker process only.  ``summarize``
turns the spans into per-layer self times: a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from workloads import ENGINES


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self.counts = {}
        self._reps = weakref.WeakSet()  # LinReps whose matrices were sized
        self._streams = {}  # id -> [weakref, letters, prefix length]
        self._stream_totals = [0, 0]

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr, name, after=None, aliases=()):
        """Replace owner.attr (and the same object on ``aliases``)."""
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        naming = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([naming(args, kwargs), stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid][2] = start
                spans[sid][3] = end
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", attr)
        setattr(owner, attr, wrapper)
        for alias in aliases:
            if getattr(alias, attr, None) is orig:
                setattr(alias, attr, wrapper)

    # -- size hooks, all reading public attributes ------------------------

    def _gammas(self, args, kwargs, result):
        rep = args[0]
        if rep in self._reps:
            return
        self._reps.add(rep)
        self.add("gamma_bytes", sum(g.nbytes for g in result))
        self.add("gamma_nnz", sum(int(np.count_nonzero(g)) for g in result))
        self.add("gamma_entries", sum(g.size for g in result))
        size = len(rep.index_set)
        self.counts["window_size"] = max(self.counts.get("window_size", 0), size)

    def _stream(self, args, kwargs, result):
        stream = args[0]
        entry = self._streams.get(id(stream))
        if entry is not None and entry[0]() is not stream:
            self._stream_totals[0] += entry[1]
            self._stream_totals[1] += entry[2]
            entry = None
        if entry is None:
            entry = self._streams[id(stream)] = [weakref.ref(stream), 0, 0]
        entry[1] = stream.letter_count()
        entry[2] = len(stream)

    def stream_sizes(self):
        letters, length = self._stream_totals
        for _, n_letters, n_prefix in self._streams.values():
            letters += n_letters
            length += n_prefix
        return letters, length


def install(ctseq):
    """Wrap the traced entry points of an imported ctseq package."""
    tr = Tracer()
    pkg = ctseq  # functions re-exported at package level are wrapped there too
    tr.wrap(ctseq.textio, "parse_poly", "textio.parse", aliases=[pkg])
    tr.wrap(ctseq.textio, "preset", "textio.parse", aliases=[pkg])
    tr.wrap(ctseq.primepower, "reduce_p_tilde", "primepower.stable_base",
            aliases=[pkg])
    tr.wrap(ctseq.primepower.TildeReduction, "__init__", "primepower.reduction")
    tr.wrap(ctseq.LinRep, "all_gammas", "linrep.gamma_build",
            after=Tracer._gammas)
    tr.wrap(ctseq.LinRep, "eval_digits", "linrep.eval",
            after=lambda t, a, k, r: t.add("digit_steps", len(a[1])))
    tr.wrap(ctseq.LinRep, "settle_exponent", "linrep.settle")
    tr.wrap(ctseq.engines, "sequence",
            lambda a, k: "engines." + k.get("engine", a[5] if len(a) > 5 else "linrep"))
    tr.wrap(ctseq.MorphicStream, "extend", "morphism.extend",
            after=Tracer._stream)
    tr.wrap(ctseq.MorphicStream, "coded_prefix", "morphism.coded_prefix",
            after=Tracer._stream)
    tr.wrap(ctseq.classify, "reachable_states", "classify.reach",
            after=lambda t, a, k, r: t.add("reach_states", len(r.states)),
            aliases=[pkg])
    tr.wrap(ctseq.classify, "verdict", "classify.verdict", aliases=[pkg])
    tr.wrap(ctseq.classify, "zero_frequency", "classify.stats", aliases=[pkg])
    tr.wrap(ctseq.classify, "gap_stats", "classify.stats", aliases=[pkg])
    tr.wrap(ctseq.classify, "combine", "classify.combine", aliases=[pkg])
    tr.wrap(ctseq.dfao, "build_forward", "dfao.build",
            after=lambda t, a, k, r: t.add("dfao_states", r.state_count),
            aliases=[pkg])
    tr.wrap(ctseq.dfao, "build_reverse", "dfao.build",
            after=lambda t, a, k, r: t.add("dfao_states", r.state_count),
            aliases=[pkg])
    tr.wrap(ctseq.Dfao, "export", "dfao.export",
            after=lambda t, a, k, r: t.add("export_bytes", len(r.encode())))
    return tr


# per-layer metric -> (unit, better); the README maps each to the
# end-to-end metric it should move
LAYER_METRICS = {
    "textio.parse_s": ("s", "lower"),
    "primepower.stable_base_s": ("s", "lower"),
    "primepower.reduction_s": ("s", "lower"),
    "linrep.gamma_build_s": ("s", "lower"),
    "linrep.gamma_bytes": ("bytes", "lower"),
    "linrep.gamma_nnz": ("count", "lower"),
    "linrep.gamma_density": ("ratio", "higher"),
    "linrep.window_size": ("count", "lower"),
    "linrep.eval_s": ("s", "lower"),
    "linrep.digit_steps": ("count", "lower"),
    "linrep.settle_s": ("s", "lower"),
    **{"engines.%s_s" % e: ("s", "lower") for e in ENGINES},
    "morphism.extend_s": ("s", "lower"),
    "morphism.coded_prefix_s": ("s", "lower"),
    "morphism.letters": ("count", "lower"),
    "morphism.prefix_len": ("count", "lower"),
    "classify.reach_s": ("s", "lower"),
    "classify.reach_states": ("count", "lower"),
    "classify.reach_states_per_s": ("states/s", "higher"),
    "classify.verdict_self_s": ("s", "lower"),
    "classify.stats_s": ("s", "lower"),
    "classify.combine_s": ("s", "lower"),
    "dfao.build_s": ("s", "lower"),
    "dfao.states": ("count", "lower"),
    "dfao.export_s": ("s", "lower"),
    "dfao.export_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def summarize(spans, counts, letters, prefix_len):
    """Per-layer metric values (without trace.overhead_s) from one round."""
    self_time = {}
    inclusive = {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, parent, start, end), covered in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - covered
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    s = self_time.get
    entries = counts.get("gamma_entries", 0)
    reach_incl = inclusive.get("classify.reach", 0.0)
    out = {
        "textio.parse_s": s("textio.parse", 0.0),
        "primepower.stable_base_s": s("primepower.stable_base", 0.0),
        "primepower.reduction_s": s("primepower.reduction", 0.0),
        "linrep.gamma_build_s": s("linrep.gamma_build", 0.0),
        "linrep.gamma_bytes": counts.get("gamma_bytes", 0),
        "linrep.gamma_nnz": counts.get("gamma_nnz", 0),
        "linrep.gamma_density": counts.get("gamma_nnz", 0) / entries if entries else 0.0,
        "linrep.window_size": counts.get("window_size", 0),
        "linrep.eval_s": s("linrep.eval", 0.0),
        "linrep.digit_steps": counts.get("digit_steps", 0),
        "linrep.settle_s": s("linrep.settle", 0.0),
        "morphism.extend_s": s("morphism.extend", 0.0),
        "morphism.coded_prefix_s": s("morphism.coded_prefix", 0.0),
        "morphism.letters": letters,
        "morphism.prefix_len": prefix_len,
        "classify.reach_s": s("classify.reach", 0.0),
        "classify.reach_states": counts.get("reach_states", 0),
        "classify.reach_states_per_s":
            counts.get("reach_states", 0) / reach_incl if reach_incl else 0.0,
        "classify.verdict_self_s": s("classify.verdict", 0.0),
        "classify.stats_s": s("classify.stats", 0.0),
        "classify.combine_s": s("classify.combine", 0.0),
        "dfao.build_s": s("dfao.build", 0.0),
        "dfao.states": counts.get("dfao_states", 0),
        "dfao.export_s": s("dfao.export", 0.0),
        "dfao.export_bytes": counts.get("export_bytes", 0),
    }
    for e in ENGINES:
        out["engines.%s_s" % e] = s("engines." + e, 0.0)
    return out
