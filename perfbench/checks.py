"""Correctness checks of a round's outputs against the reference.

``build_reference(spec)`` computes, before any timing, everything the
checks compare with; ``verify(spec, ref, out)`` returns a list of
failure messages (empty when every output is right).  ``out`` maps an
output key to its integer list and carries the round's records and
export texts.  Nothing here imports ctseq.
"""

from __future__ import annotations

import numpy as np

import reference as R
import workloads as W

# covers p^a for p in {2, 3, 5}, a <= 3 and the primes 7, 11, 13
CONV_MOD = 27000 * 7 * 11 * 13
NO_ZERO_PREFIX = 400


def _preset_seqs(name, count):
    seq_q, seq_one = R.PRESET_SEQUENCES[name]
    return seq_q(count), seq_one(count)


def parse_walnut(text):
    """(msd?, p, outputs, transitions) of a walnut digit automaton text."""
    blocks = text.strip().split("\n\n")
    order, p = blocks[0].split("_")
    outputs, trans = [], []
    for sid, block in enumerate(blocks[1:]):
        lines = block.split("\n")
        head, out = map(int, lines[0].split())
        if head != sid:
            raise ValueError("state %d listed as %d" % (sid, head))
        outputs.append(out)
        row = {}
        for line in lines[1:]:
            d, t = line.split("->")
            row[int(d)] = int(t)
        trans.append(row)
    return order == "msd", int(p), outputs, trans


def walnut_run(machine, n):
    """The output of a parsed walnut automaton on the base-p digits of n."""
    msd, p, outputs, trans = machine
    digits = []
    while True:
        digits.append(n % p)
        n //= p
        if not n:
            break
    if msd:
        digits.reverse()
    state = 0
    for d in digits:
        state = trans[state][d]
    return outputs[state]


# ---------------------------------------------------------------------------
# reference per workload
# ---------------------------------------------------------------------------


def build_reference(spec):
    return _REFS[spec["workload"]](spec)


def _ref_univariate(spec):
    count = spec["count"]
    seqs = []
    for pair in spec["pairs"]:
        if "preset" in pair:
            seqs.append(_preset_seqs(pair["preset"], count))
        else:
            P, Q = dict(pair["P"]), dict(pair["Q"])
            seqs.append(tuple(R.conv_ct(P, [Q, {0: 1}], count, CONV_MOD)))
    return {"seqs": seqs}


def _ref_apery(spec):
    count = max(spec["ref_len"], *(m[e] for m in spec["moduli"]
                                   for e in ("dfao", "dfao-reverse", "primepower")))
    A = R.apery(count)
    return {"apery": A}


def _ref_classify(spec):
    count = spec["prefix"]
    presets = {name: _preset_seqs(name, count) for name in W.UNIVARIATE_PRESETS}
    return {"presets": presets,
            "mid": R.conv_ct(dict(spec["mid"]["P"]), [{0: 1}], 64, spec["mid"]["p"])[0]}


def _ref_long(spec):
    length = spec["length"]
    comb = spec["combine"]
    exact_len = comb["count"] + comb["shift"] + 1
    exact = {name: _preset_seqs(name, exact_len) for name in W.UNIVARIATE_PRESETS}
    tables = {}
    for name, p, a in spec["cases"]:
        top = max(a for _, q, a in spec["cases"] if q == p)
        if p not in tables:
            tables[p] = R.FactorialTable(p, top, 2 * length)
    return {"exact": exact, "tables": tables, "exact_len": exact_len}


_REFS = {
    "univariate-engines": _ref_univariate,
    "apery-window": _ref_apery,
    "classify-automata": _ref_classify,
    "long-prefix": _ref_long,
}


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


class Failures(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)


def _check_seq(fails, key, got, want):
    got = np.asarray(got, dtype=np.int64)
    want = np.asarray(want, dtype=np.int64)
    if got.shape != want.shape:
        fails.append("%s: %d terms, expected %d" % (key, got.size, want.size))
        return
    bad = np.flatnonzero(got != want)
    if bad.size:
        n = int(bad[0])
        fails.append("%s: term %d is %d, reference %d" % (key, n, got[n], want[n]))


def _check_deep(fails, key, got, pairs, seq_q, seq_one, p, a):
    for (n0, m), g in zip(pairs, got):
        w = R.deep_value(seq_q, seq_one, n0, m, p, a)
        fails.expect(g == w, "%s: term %d is %d, reference %d"
                     % (key, W.deep_index(p, n0, m), g, w))


def _check_verdict(fails, key, record, seq_one, p):
    fails.expect(record["status"] == "exact", "%s: status %s" % (key, record["status"]))
    want = R.least_zero(seq_one, p)
    fails.expect(record["zero_witness"] == want,
                 "%s: witness %s, least zero in the reference prefix %s"
                 % (key, record["zero_witness"], want))


def _check_automata(fails, key, out, seq_q, seq_one, p, a, count):
    """Both exports re-run from walnut text against the reference."""
    mod = p**a
    blocks = p ** (a - 1)
    for direction, seq in (("forward", seq_q), ("reverse", seq_one)):
        machine = parse_walnut(out["exports"]["%s.%s.walnut" % (key, direction)])
        for q in range(count // blocks):
            got = walnut_run(machine, q)
            want = seq[blocks * q] % mod
            if got != want:
                fails.append("%s.%s walnut: index %d gives %d, reference %d"
                             % (key, direction, q, got, want))
                break


def verify(spec, ref, out):
    fails = Failures()
    _CHECKS[spec["workload"]](spec, ref, out, fails)
    return fails


def _verify_univariate(spec, ref, out, fails):
    count = spec["count"]
    for case in spec["cases"]:
        i, p, a = case["pair"], case["p"], case["a"]
        seq_q, seq_one = ref["seqs"][i]
        want = [v % p**a for v in seq_q[:count]]
        for engine in spec["engines"]:
            key = "seq/%d/%d/%d/%s" % (i, p, a, engine)
            _check_seq(fails, key, out[key], want)
        _check_deep(fails, "deep/%d/%d/%d" % (i, p, a), out["deep/%d/%d/%d" % (i, p, a)],
                    case["deep"], seq_q, seq_one, p, a)
    for i, p in spec["verdicts"]:
        key = "verdict/%d/%d" % (i, p)
        _check_verdict(fails, key, out["records"][key], ref["seqs"][i][1], p)
    for i, p, a in spec["automata"]:
        seq_q, seq_one = ref["seqs"][i]
        _check_automata(fails, "auto-%d-%d-%d" % (i, p, a), out, seq_q, seq_one,
                        p, a, count)


def _verify_apery(spec, ref, out, fails):
    A = ref["apery"]
    for m in spec["moduli"]:
        p, a = m["p"], m["a"]
        mod = p**a
        for engine in ("dfao", "dfao-reverse", "primepower"):
            key = "seq/%d/%d/%s" % (p, a, engine)
            _check_seq(fails, key, out[key], [v % mod for v in A[: m[engine]]])
        key = "seq/%d/%d/linrep" % (p, a)
        _check_seq(fails, key, out[key], [A[n] % mod for n in m["linrep"]])
        _check_deep(fails, "deep/%d/%d" % (p, a), out["deep/%d/%d" % (p, a)],
                    m["deep"], A, A, p, a)
        if [p, a] in spec["automata"]:
            _check_automata(fails, "auto-%d-%d" % (p, a), out, A, A, p, a,
                            spec["ref_len"])
    for p in spec["verdict_primes"]:
        key = "verdict/%d" % p
        _check_verdict(fails, key, out["records"][key], A, p)


def _verify_classify(spec, ref, out, fails):
    count = spec["prefix"]
    for (name, p, a), pair in zip(spec["automata"], spec["deep"]):
        seq_q, seq_one = ref["presets"][name]
        key = "seq/%s/%d/%d" % (name, p, a)
        _check_seq(fails, key, out[key], [v % p**a for v in seq_q[:count]])
        _check_deep(fails, "deep/%s/%d/%d" % (name, p, a),
                    out["deep/%s/%d/%d" % (name, p, a)], [pair], seq_q, seq_one, p, a)
        _check_automata(fails, "auto-%s-%d-%d" % (name, p, a), out, seq_q, seq_one,
                        p, a, count)
    for name, p in spec["verdicts"]:
        key = "verdict/%s/%d" % (name, p)
        _check_verdict(fails, key, out["records"][key], ref["presets"][name][1], p)
    mid = out["records"]["verdict/mid"]
    _check_verdict(fails, "verdict/mid", mid, ref["mid"], spec["mid"]["p"])
    fails.expect(mid["states"] == 16807,
                 "verdict/mid: %s reachable states, expected 16807" % mid["states"])
    # each scan witness is the least zero of ct(P^n) mod p; a "no_zero"
    # poly has no zero among its first NO_ZERO_PREFIX terms
    items = out["records"]["scan"]
    fails.expect(len(items) == spec["scan"]["count"] * len(spec["scan"]["primes"]),
                 "scan: %d items" % len(items))
    for item in items:
        P = dict(item["poly"])
        p = item["p"]
        limit = item["witness"] + 1 if item["status"] == "witness" else NO_ZERO_PREFIX
        values = R.conv_ct(P, [{0: 1}], limit, p)[0]
        want = R.least_zero(values, p)
        got = item["witness"] if item["status"] == "witness" else None
        fails.expect(item["status"] != "inconclusive" and got == want,
                     "scan %s p=%d: %s %s, reference least zero %s"
                     % (item["poly"], p, item["status"], item["witness"], want))


def _verify_long(spec, ref, out, fails):
    length = spec["length"]
    exact, tables = ref["exact"], ref["tables"]
    for (name, p, a), pairs in zip(spec["cases"], spec["deep"]):
        mod = p**a
        key = "seq/%s/%d/%d" % (name, p, a)
        got = out[key]
        seq_q, seq_one = exact[name]
        fails.expect(len(got) == length, "%s: %d terms" % (key, len(got)))
        head = ref["exact_len"]
        _check_seq(fails, key, got[:head], [v % mod for v in seq_q[:head]])
        table = tables[p]
        if name == "catalan":
            full = R.catalan_mod(table, length) % mod
            _check_seq(fails, key + " (factorial formula)", got, full)
        else:
            formula = R.motzkin_mod if name == "motzkin" else R.trinomial_mod
            for n in spec["samples"]:
                w = formula(table, n) % mod
                fails.expect(got[n] == w, "%s: term %d is %d, factorial formula %d"
                             % (key, n, got[n], w))
        if name == "catalan" and p == 2:
            fails.expect(R.catalan_odd_iff_pow2(got),
                         "%s: C_n odd does not match n+1 a power of 2" % key)
        if name == "motzkin" and mod % 8 == 0:
            fails.expect(R.motzkin_never_zero_mod8(got),
                         "%s: a Motzkin number is 0 mod 8" % key)
        _check_deep(fails, "deep/%s/%d/%d" % (name, p, a),
                    out["deep/%s/%d/%d" % (name, p, a)], pairs, seq_q, seq_one, p, a)
        zeros = int(np.count_nonzero(got == 0))
        num, den = out["records"]["freq/" + key]
        fails.expect(num * length == zeros * den,
                     "%s: zero frequency %d/%d, counted %d/%d" % (key, num, den, zeros, length))
        rows = [list(r) for r in R.gap_rows(got, spec["word_length"])]
        want_rows = [[list(w), c, g, cen] for w, c, g, cen in rows]
        fails.expect(out["records"]["gaps/" + key] == want_rows,
                     "%s: gap statistics differ from the reference" % key)
    for name, p in spec["verdicts"]:
        key = "verdict/%s/%d" % (name, p)
        _check_verdict(fails, key, out["records"][key], exact[name][1], p)
    for name, p, a in spec["automata"]:
        seq_q, seq_one = exact[name]
        _check_automata(fails, "auto-%s-%d-%d" % (name, p, a), out, seq_q, seq_one,
                        p, a, 2000)
    comb = spec["combine"]
    mod = comb["p"] ** comb["a"]
    seq_q, seq_one = exact[comb["preset"]]
    b0, b1 = comb["betas"]
    want = [(b0 * seq_q[n] + b1 * seq_one[n + comb["shift"]]) % mod
            for n in range(comb["count"])]
    _check_seq(fails, "combine", out["combine"], want)


_CHECKS = {
    "univariate-engines": _verify_univariate,
    "apery-window": _verify_apery,
    "classify-automata": _verify_classify,
    "long-prefix": _verify_long,
}
