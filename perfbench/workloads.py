"""The four benchmark workloads: seeded inputs and their execution.

``make_spec(name, seed)`` runs in the parent process (run.py) and
returns plain JSON data: polynomials as expression text (for ctseq's
parser) and as exponent dicts (for the reference), indices, counts and
moduli.  It never imports ctseq.

``run(ctseq, spec, rnd)`` runs in a fresh worker process after
``import ctseq``.  It calls only the public ctseq API, through module
attributes so that a traced run sees its wrappers, and times every
call as one operation of a phase (setup, gen, deep, verdict, auto or
stats); the end-to-end metrics are made from these operation times.
"""

from __future__ import annotations

import random
import time

UNIVARIATE_PRESETS = ("pascal", "catalan", "motzkin", "trinomial")
ENGINES = ("linrep", "dfao", "dfao-reverse", "morphism", "primepower")
DEEP_DIGITS = 40  # deep indices have exactly this many base-p digits
# mid-size exact verdict: p = 7 closes over 16,807 states
MID_POLY = {-3: 1, -1: 2, 0: 1, 2: 1, 3: 3}

# leading coefficients prime to 2, 3, 5, 7, 11 and 13 keep the degree of
# every random P the same modulo each prime, so the windows, and with them
# the cost, do not depend on the seed
_UNITS = (1, -1, 17, -17, 19, -19, 23, -23)

WORKLOADS = ("univariate-engines", "apery-window", "classify-automata",
             "long-prefix")


# ---------------------------------------------------------------------------
# inputs (parent side)
# ---------------------------------------------------------------------------


def _poly_text(poly):
    """Expression text for an exponent dict, in ctseq's grammar."""
    parts = []
    for e in sorted(poly):
        c = poly[e]
        mono = "x^%d" % e if e else ""
        body = ("%d*%s" % (abs(c), mono) if abs(c) != 1 else mono) if mono else str(abs(c))
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def _random_pair(rng, degree):
    P = {-degree: rng.choice(_UNITS), degree: rng.choice(_UNITS)}
    for e in range(-degree + 1, degree):
        c = rng.randint(-13, 13)
        if c:
            P[e] = c
    Q = {}
    while not Q:
        Q = {e: c for e in (-1, 0, 1) if (c := rng.randint(-3, 3))}
    return P, Q


def _deep(rng, p, below):
    """(n0, m) for the index n0 + m * p^(DEEP_DIGITS - 1)."""
    return [rng.randrange(below), rng.randrange(1, p)]


def spec_univariate_engines(rng):
    count = 1000
    pairs = [{"preset": name} for name in UNIVARIATE_PRESETS]
    for i in range(4):
        P, Q = _random_pair(rng, degree=1 + i % 2)
        pairs.append({"P_text": _poly_text(P), "Q_text": _poly_text(Q),
                      "P": sorted(P.items()), "Q": sorted(Q.items())})
    cases = []
    for i in range(len(pairs)):
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                cases.append({"pair": i, "p": p, "a": a,
                              "deep": [_deep(rng, p, count) for _ in range(2)]})
    verdicts = [[i, p] for i in range(4) for p in (2, 3, 5, 7, 11, 13)]
    verdicts += [[i, p] for i in range(4, len(pairs)) for p in (2, 3)]
    # random pairs mod p^2 can close over more than 50,000 states, so
    # their automata are built mod p only
    automata = [[i, p, 2] for i in range(4) for p in (2, 3, 5)]
    automata += [[i, p, 1] for i in range(4, len(pairs)) for p in (2, 3)]
    return {"pairs": pairs, "count": count, "engines": list(ENGINES),
            "repeats": {"setup": 3, "deep": 3, "verdict": 3, "auto": 3},
            "cases": cases, "verdicts": verdicts, "automata": automata}


def spec_apery_window(rng):
    ref_len = 600
    mods = []
    for p, a, n_auto, n_linrep, n_prefix, n_deep in (
        (2, 3, 2000, 100, 2000, 2),
        (5, 2, 1000, 50, 1000, 2),
        (3, 3, 50, 4, 100, 2),
    ):
        mods.append({
            "p": p, "a": a,
            "dfao": n_auto, "dfao-reverse": n_auto, "primepower": n_prefix,
            "linrep": sorted(rng.sample(range(ref_len), n_linrep)),
            "deep": [_deep(rng, p, ref_len) for _ in range(n_deep)],
            # a deep term on the 4913-entry window takes a quarter second
            "deep_repeats": 2 if p**a == 27 else 3,
        })
    return {"moduli": mods, "ref_len": ref_len, "repeats": {"verdict": 5},
            "verdict_primes": [2, 3, 5, 7],
            "automata": [[2, 3], [5, 2]]}


def spec_classify_automata(rng):
    cases = [[name, p, a] for name in UNIVARIATE_PRESETS
             for p, a in ((2, 4), (3, 3), (5, 2), (7, 2))]
    return {
        "scan": {"count": 30, "degree_max": 2, "coeff_max": 3,
                 "primes": [2, 3, 5], "seed": rng.randrange(2**31)},
        "verdicts": [[name, p] for name in UNIVARIATE_PRESETS
                     for p in (2, 3, 5, 7, 11, 13)],
        "mid": {"text": _poly_text(MID_POLY), "P": sorted(MID_POLY.items()), "p": 7},
        "automata": cases,
        "prefix": 2000,
        "deep": [_deep(rng, p, 2000) for _, p, _ in cases],
        "repeats": {"setup": 3, "deep": 5, "verdict": 3},
    }


def spec_long_prefix(rng):
    length = 250_000
    cases = [["motzkin", 2, 1], ["motzkin", 2, 3], ["catalan", 3, 2],
             ["catalan", 2, 5], ["trinomial", 5, 2]]
    return {
        "length": length,
        "word_length": 3,
        "cases": cases,
        "samples": sorted(rng.sample(range(20_000, length), 12)),
        "deep": [[_deep(rng, p, 2000) for _ in range(4)] for _, p, _ in cases],
        "combine": {"preset": "motzkin", "p": 3, "a": 2, "count": 20_000,
                    "shift": rng.randrange(1, 65),
                    "betas": [rng.randrange(1, 9), rng.randrange(1, 9)]},
        "verdicts": [[name, p] for name in UNIVARIATE_PRESETS
                     for p in (2, 3, 5, 7, 11, 13)],
        "automata": [["catalan", 2, 3], ["motzkin", 3, 2], ["motzkin", 7, 2]],
        "repeats": {"setup": 3, "deep": 5, "verdict": 3, "auto": 2},
    }


_SPECS = {
    "univariate-engines": spec_univariate_engines,
    "apery-window": spec_apery_window,
    "classify-automata": spec_classify_automata,
    "long-prefix": spec_long_prefix,
}


def make_spec(name, seed):
    rng = random.Random("%s/%d" % (name, seed))
    spec = _SPECS[name](rng)
    spec["workload"] = name
    spec["seed"] = seed
    return spec


def deep_index(p, n0, m):
    return n0 + m * p ** (DEEP_DIGITS - 1)


# ---------------------------------------------------------------------------
# execution (worker side)
# ---------------------------------------------------------------------------


class Round:
    """Operation times and outputs of one workload round.

    ``ops[key] = [phase, seconds, units]``; units are terms for ``gen``,
    verdicts for ``verdict`` and automaton states for ``auto``.
    ``repeats[phase]`` runs each operation of a phase several times and
    keeps its fastest run: operations of a few milliseconds need more
    samples than the rounds give.  Only phases without caches between
    calls repeat (never ``gen``, whose letter streams are cached).
    """

    def __init__(self, repeats):
        self.repeats = repeats
        self.ops = {}
        self.arrays = {}  # name -> list of ints, saved as arrays
        self.records = {}  # name -> JSON data
        self.exports = {}  # file name -> export text

    def op(self, phase, key, fn, units=None, repeat=None, same=None):
        """Time fn as one operation; ``same`` maps a result to what repeats
        must reproduce (the result itself by default)."""
        if key in self.ops:
            raise ValueError("operation key %r used twice" % key)
        same = same or (lambda r: r)
        best = float("inf")
        for j in range(repeat or self.repeats.get(phase, 1)):
            t = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t)
            if j == 0:
                result = out
            elif same(out) != same(result):
                raise RuntimeError("operation %r changed its result on repeat %d"
                                   % (key, j))
        self.ops[key] = [phase, best, units(result) if units else 0]
        return result

    def generate(self, key, fn):
        self.arrays[key] = self.op("gen", key, fn, len)

    def deep(self, key, red, p, pairs, repeat=None):
        self.arrays[key] = [
            self.op("deep", "%s#%d" % (key, j),
                    lambda: red.term(deep_index(p, n0, m)), repeat=repeat)
            for j, (n0, m) in enumerate(pairs)
        ]

    def verdict(self, key, fn, repeat=None):
        v = self.op("verdict", key, fn, lambda v: 1, repeat=repeat)
        self.records[key] = {"status": v.status, "zero_witness": v.zero_witness,
                             "states": v.reachable_states}

    def automaton(self, key, build):
        def build_and_export():
            machine = build()
            return machine.state_count, machine.export("walnut"), machine.export("dot")

        _, walnut, dot = self.op("auto", key, build_and_export, lambda r: r[0])
        self.exports[key + ".walnut"] = walnut
        self.exports[key + ".dot"] = dot


def _pairs(ctseq, rnd, specs):
    out = []
    for j, pair in enumerate(specs):
        if "preset" in pair:
            out.append(rnd.op("setup", "parse/%d" % j,
                              lambda: ctseq.preset(pair["preset"])))
        else:
            out.append(rnd.op("setup", "parse/%d" % j, lambda: (
                ctseq.parse_poly(pair["P_text"]), ctseq.parse_poly(pair["Q_text"]))))
    return out


def _reduction(ctseq, rnd, key, P, Q, p, a):
    def build():
        red = ctseq.build_reduction(P, Q, p, a)
        red.tilde_rep.all_gammas()
        return red

    def same(red):
        return (red.p_tilde, [r.tobytes() for r in red.block_rows],
                [g.tobytes() for g in red.tilde_rep.all_gammas()])

    return rnd.op("setup", "reduction/" + key, build, same=same)


def _forward(ctseq, red):
    return ctseq.build_forward(red.p_tilde, red.reduced_codings[0][0], red.p,
                               red.modulus, rep=red.tilde_rep)


def _automata(ctseq, rnd, key, red):
    rnd.automaton(key + ".forward", lambda: _forward(ctseq, red))
    rnd.automaton(key + ".reverse", lambda: ctseq.build_reverse(red.tilde_rep))


def run_univariate_engines(ctseq, spec, rnd):
    pairs = _pairs(ctseq, rnd, spec["pairs"])
    reds = {}
    for case in spec["cases"]:
        i, p, a = case["pair"], case["p"], case["a"]
        reds[i, p, a] = _reduction(ctseq, rnd, "%d/%d/%d" % (i, p, a),
                                   *pairs[i], p, a)
    count = spec["count"]
    for case in spec["cases"]:
        i, p, a = case["pair"], case["p"], case["a"]
        P, Q = pairs[i]
        red = reds[i, p, a]
        for engine in spec["engines"]:
            rnd.generate("seq/%d/%d/%d/%s" % (i, p, a, engine),
                         lambda: ctseq.engines.sequence(P, Q, p, a, count,
                                                        engine, red=red))
    for case in spec["cases"]:
        i, p, a = case["pair"], case["p"], case["a"]
        rnd.deep("deep/%d/%d/%d" % (i, p, a), reds[i, p, a], p, case["deep"])
    for i, p in spec["verdicts"]:
        P, Q = pairs[i]
        rnd.verdict("verdict/%d/%d" % (i, p), lambda: ctseq.verdict(P, Q, p))
    for i, p, a in spec["automata"]:
        _automata(ctseq, rnd, "auto-%d-%d-%d" % (i, p, a), reds[i, p, a])


def run_apery_window(ctseq, spec, rnd):
    P, Q = _pairs(ctseq, rnd, [{"preset": "apery"}])[0]
    reds = [_reduction(ctseq, rnd, "%d/%d" % (m["p"], m["a"]), P, Q, m["p"], m["a"])
            for m in spec["moduli"]]
    for m, red in zip(spec["moduli"], reds):
        p, a = m["p"], m["a"]
        for engine in ("dfao", "dfao-reverse", "primepower"):
            rnd.generate("seq/%d/%d/%s" % (p, a, engine),
                         lambda: ctseq.engines.sequence(P, Q, p, a, m[engine],
                                                        engine, red=red))
        rnd.generate("seq/%d/%d/linrep" % (p, a),
                     lambda: [red.term(n) for n in m["linrep"]])
    for m, red in zip(spec["moduli"], reds):
        rnd.deep("deep/%d/%d" % (m["p"], m["a"]), red, m["p"], m["deep"],
                 repeat=m["deep_repeats"])
    for p in spec["verdict_primes"]:
        rnd.verdict("verdict/%d" % p, lambda: ctseq.verdict(P, Q, p))
    for m, red in zip(spec["moduli"], reds):
        if [m["p"], m["a"]] in spec["automata"]:
            _automata(ctseq, rnd, "auto-%d-%d" % (m["p"], m["a"]), red)


def _preset_pairs(ctseq, rnd):
    pairs = _pairs(ctseq, rnd, [{"preset": name} for name in UNIVARIATE_PRESETS])
    return dict(zip(UNIVARIATE_PRESETS, pairs))


def run_classify_automata(ctseq, spec, rnd):
    one = ctseq.LaurentPoly.one(1)
    presets = _preset_pairs(ctseq, rnd)
    mid = rnd.op("setup", "parse/mid", lambda: ctseq.parse_poly(spec["mid"]["text"]))
    reds = {(name, p, a): _reduction(ctseq, rnd, "%s/%d/%d" % (name, p, a),
                                     *presets[name], p, a)
            for name, p, a in spec["automata"]}
    for name, p, a in spec["automata"]:
        red = reds[name, p, a]
        rnd.generate("seq/%s/%d/%d" % (name, p, a), lambda: red.prefix(spec["prefix"]))
    for (name, p, a), pair in zip(spec["automata"], spec["deep"]):
        rnd.deep("deep/%s/%d/%d" % (name, p, a), reds[name, p, a], p, [pair])
    scan = spec["scan"]
    report = rnd.op("verdict", "scan", lambda: ctseq.conjecture_scan(
        count=scan["count"], degree_max=scan["degree_max"],
        coeff_max=scan["coeff_max"], primes=tuple(scan["primes"]),
        seed=scan["seed"]), lambda r: len(r.items), repeat=1)
    rnd.records["scan"] = [
        {"poly": sorted((e[0], c) for e, c in item.poly.terms.items()),
         "p": item.p, "status": item.status, "witness": item.witness}
        for item in report.items
    ]
    for name, p in spec["verdicts"]:
        P, Q = presets[name]
        rnd.verdict("verdict/%s/%d" % (name, p), lambda: ctseq.verdict(P, Q, p))
    rnd.verdict("verdict/mid", lambda: ctseq.verdict(mid, one, spec["mid"]["p"]),
                repeat=1)
    for name, p, a in spec["automata"]:
        _automata(ctseq, rnd, "auto-%s-%d-%d" % (name, p, a), reds[name, p, a])


def run_long_prefix(ctseq, spec, rnd):
    presets = _preset_pairs(ctseq, rnd)
    one = ctseq.LaurentPoly.one(1)
    reds = {(name, p, a): _reduction(ctseq, rnd, "%s/%d/%d" % (name, p, a),
                                     *presets[name], p, a)
            for name, p, a in spec["cases"] + spec["automata"]}
    length = spec["length"]
    keys = []
    for name, p, a in spec["cases"]:
        key = "seq/%s/%d/%d" % (name, p, a)
        rnd.generate(key, lambda: reds[name, p, a].prefix(length))
        keys.append(key)
    for (name, p, a), pairs in zip(spec["cases"], spec["deep"]):
        rnd.deep("deep/%s/%d/%d" % (name, p, a), reds[name, p, a], p, pairs)
    for name, p in spec["verdicts"]:
        P, Q = presets[name]
        rnd.verdict("verdict/%s/%d" % (name, p), lambda: ctseq.verdict(P, Q, p))
    for name, p, a in spec["automata"]:
        _automata(ctseq, rnd, "auto-%s-%d-%d" % (name, p, a), reds[name, p, a])
    for key in keys:
        seq = rnd.arrays[key]
        freq = rnd.op("stats", "freq/" + key,
                      lambda: ctseq.zero_frequency(seq, length))
        gaps = rnd.op("stats", "gaps/" + key,
                      lambda: ctseq.gap_stats(seq, spec["word_length"], length))
        rnd.records["freq/" + key] = [freq.numerator, freq.denominator]
        rnd.records["gaps/" + key] = [
            [list(row.word), row.count, row.max_gap, row.censored]
            for row in gaps.rows
        ]
    comb = spec["combine"]
    P, Q = presets[comb["preset"]]
    parts = [(0, Q, comb["betas"][0]), (comb["shift"], one, comb["betas"][1])]
    rnd.arrays["combine"] = rnd.op(
        "stats", "combine",
        lambda: ctseq.combine(P, parts, comb["p"], comb["a"], comb["count"]))


_RUNS = {
    "univariate-engines": run_univariate_engines,
    "apery-window": run_apery_window,
    "classify-automata": run_classify_automata,
    "long-prefix": run_long_prefix,
}


def run(ctseq, spec, rnd):
    _RUNS[spec["workload"]](ctseq, spec, rnd)
