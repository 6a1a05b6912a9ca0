"""Exact recurrence classification, zero witnesses, and statistics.

A sequence ct(P^n Q) mod p^a is linearly recurrent exactly when no
power of P has constant term divisible by p; otherwise zero occurs with
frequency one.  The decision depends only on P and p, never on Q or a,
and it is made exactly: breadth-first closure of the window vectors of
P mod p either exhausts every reachable state with nonzero constant
entry, or it finds the least index n0 with p | ct(P^n0).
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from . import oracle
from .closure import Interner
from .errors import ResourceLimitError
from .laurent import LaurentPoly
from .linrep import LinRep, check_digit_cap
from .primepower import TildeReduction

DEFAULT_STATE_CAP = 400_000
# zero witnesses larger than this skip the brute-force cross-checks
WITNESS_VERIFY_BUDGET = 20_000


@dataclass
class ReachReport:
    """Closure of the window vectors of P, with the zero-term flags.

    ``state_array`` holds the states as rows; ``states`` lists them as
    tuples, built on first read.
    """

    state_array: np.ndarray
    zero_ct_reachable: bool
    witness_n0: int | None
    nonzero_ct_off_origin: bool  # some n > 0 keeps the constant term a unit

    @functools.cached_property
    def states(self):
        return list(zip(*self.state_array.T.tolist()))


def _least_index(parent, digit, s, p):
    """The least n with V(n) equal to state s: the digits of the walk
    that first reached s, most significant first.  Least indices can
    exceed int64, so the parent links are walked in Python ints."""
    n, place = 0, 1
    while s:
        n += int(digit[s]) * place
        place *= p
        s = parent[s]
    return n


def _closure_of_v0(rep, state_cap):
    """Close V(0) on the reach module a block at a time, yielding after
    each block the walk and the least n with p | ct(P^n) among the
    states interned so far (None while there is none).

    The walk that first reaches each state is the most significant
    digit string of the least n producing it, so states are numbered in
    increasing order of that n and the first state interned with
    constant entry 0 mod p gives the least witness.
    """
    p, module = rep.p, rep.reach_module()
    walk = Interner(module.start, module, False, state_cap, "reachable set")
    witness = None
    for first in walk.blocks():
        if witness is None:
            zero = np.flatnonzero(module.constants(walk.states[first:walk.count]) % p == 0)
            if zero.size:
                witness = _least_index(*walk.links(), first + int(zero[0]), p)
        yield walk, witness


def reachable_states(rep, state_cap=DEFAULT_STATE_CAP):
    """All vectors gamma-reachable from V(0), in first-occurrence order,
    with the least zero witness."""
    for walk, witness in _closure_of_v0(rep, state_cap):
        pass
    module = rep.reach_module()
    states, table = walk.states[:walk.count], walk.table[:walk.count]
    units = module.constants(states) % rep.p != 0
    # every state but V(0) is some V(n) with n > 0, and so is V(0) when
    # a step other than digit 0 from V(0) leads back to it
    off_origin = np.ones(len(table), dtype=bool)
    off_origin[0] = (table[1:] == 0).any() or (table[0, 1:] == 0).any()
    return ReachReport(module.vectors(states), witness is not None, witness,
                       bool(units[off_origin].any()))


def _verify_witness(P, p, rep, n0):
    """Belt-and-braces checks on a BFS witness (skipped when huge): every
    earlier term is nonzero mod p and term n0 is zero, on terms from
    LinRep.eval_many, which multiplies coding rows instead of interning
    states, and up to n0 = 2000 on the brute-force oracle, which shares
    no code with either."""
    if n0 is None or n0 > WITNESS_VERIFY_BUDGET:
        return
    unit, terms = rep.row_Q, []
    for ns in np.array_split(np.arange(n0 + 1), n0 // 256 + 1):
        terms += rep.eval_many(ns, np.broadcast_to(unit, (len(ns), len(unit))))
    if any(v % p == 0 for v in terms[:n0]):
        raise AssertionError("breadth-first witness %d is not minimal" % n0)
    if terms[n0] % p != 0:
        raise AssertionError("breadth-first witness %d is not a zero" % n0)
    if n0 <= 2_000:
        brute = oracle.sequence(P, LaurentPoly.one(P.nvars), p, n0 + 1)
        if 0 in brute[:n0] or brute[n0] != 0:
            raise AssertionError("oracle rejects witness %d" % n0)


def zero_witness(P, p, state_cap=DEFAULT_STATE_CAP):
    """Least n with p | ct(P^n), or None if provably no such n exists.

    The closure of V(0) numbers its states in order of their least
    index, so the first state interned with constant entry 0 mod p gives
    the answer: the walk stops after the block that interns it.  None is
    exact, not heuristic: it means the closure was exhausted with every
    constant entry a unit mod p.  ResourceLimitError means the state cap
    tripped before any zero was interned.  A witness up to
    WITNESS_VERIFY_BUDGET is re-checked on LinRep.eval_many (every
    earlier term a unit, term n0 zero), and up to 2000 on the whole
    oracle prefix as well.
    """
    rep = LinRep(P, LaurentPoly.one(P.nvars), p, 1)
    for _, witness in _closure_of_v0(rep, state_cap):
        if witness is not None:
            break
    _verify_witness(P, p, rep, witness)
    return witness


@dataclass
class Verdict:
    p: int
    a: int
    m: int
    window_size: int
    settle_s: int
    reachable_states: int
    zero_witness: int | None
    linearly_recurrent: bool | None
    recurrence_guaranteed: bool | None
    conjecture_bound: int
    naive_bound_digits: int
    status: str


def _naive_bound_digits(p, window_size):
    """Decimal digit count of p^(p^window_size)."""
    if window_size > 200_000:
        raise ResourceLimitError("window too large to size the a priori bound")
    exponent = p**window_size
    with localcontext() as ctx:
        ctx.prec = len(str(exponent)) + 25
        return int(Decimal(exponent) * Decimal(p).log10()) + 1


def verdict(P, Q, p, a=1, state_cap=DEFAULT_STATE_CAP):
    """Classify ct(P^n Q) mod p^a.

    The window is built from P alone (coding by Q never affects the
    answer, nor does the exponent a); Q and a are echoed into the
    record so callers can tell what was asked.  Status "inconclusive"
    means the reachable states exceed ``state_cap``, and its
    ``reachable_states`` is the number interned when the cap tripped;
    every other guard, such as the digit cap on building the matrices,
    raises ResourceLimitError.
    """
    rep = LinRep(P, LaurentPoly.one(P.nvars), p, 1)
    index = rep.index_set
    settle = rep.settle_exponent()
    # a refused matrix build is a guard to report, not an open question
    rep.all_gammas()
    asked = dict(p=p, a=a, m=index.m, window_size=len(index), settle_s=settle,
                 conjecture_bound=p**P.degree(),
                 naive_bound_digits=_naive_bound_digits(p, len(index)))
    try:
        reach = reachable_states(rep, state_cap)
    except ResourceLimitError as exc:
        return Verdict(reachable_states=exc.states or 0, zero_witness=None,
                       linearly_recurrent=None, recurrence_guaranteed=None,
                       status="inconclusive", **asked)
    _verify_witness(P, p, rep, reach.witness_n0)
    return Verdict(reachable_states=len(reach.state_array),
                   zero_witness=reach.witness_n0,
                   linearly_recurrent=reach.witness_n0 is None,
                   recurrence_guaranteed=reach.nonzero_ct_off_origin,
                   status="exact", **asked)


# ---------------------------------------------------------------------------
# sequence statistics
# ---------------------------------------------------------------------------


def zero_frequency(seq, count):
    """Exact fraction of zeros among the first ``count`` terms."""
    if count <= 0:
        raise ValueError("count must be positive")
    if len(seq) < count:
        raise ValueError("sequence provides %d of %d terms" % (len(seq), count))
    return Fraction(operator.countOf(itertools.islice(seq, count), 0), count)


@dataclass
class GapRow:
    word: tuple
    count: int
    max_gap: int
    censored: bool


@dataclass
class GapReport:
    word_length: int
    prefix_length: int
    rows: list = field(default_factory=list)


def _values(seq, count):
    """The first ``count`` integer terms as int64, or as objects past int64."""
    if isinstance(seq, np.ndarray):
        return seq[:count]
    try:
        return np.fromiter(seq, dtype=np.int64, count=count)
    except OverflowError:
        return np.array(seq[:count], dtype=object)


def _ranks(values):
    """Dense int32 codes of ``values`` in value order, and how many."""
    ordered = np.sort(values)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    del ordered
    return np.searchsorted(distinct, values).astype(np.int32), len(distinct)


def _word_keys(codes, radix, word_length, starts):
    """One integer key per start position, in lexicographic word order.

    Code columns are packed most significant first.  Whenever the next
    column would carry the radix product past int64, the keys are
    replaced by their ranks (fewer than ``starts``) and packing goes on,
    so words of any length and any values take the same loop.  Returns
    the keys and a bound on them.
    """
    keys = codes[:starts].astype(np.int64)
    span = radix
    for j in range(1, word_length):
        if span * radix > 2**63:
            keys, span = _ranks(keys)
            keys = keys.astype(np.int64)
        keys *= radix
        keys += codes[j : j + starts]
        span *= radix
    return keys, span


def gap_stats(seq, word_length, count):
    """Largest spacing between repeats of each length-L word.

    Purely empirical: gaps are measured between start positions of
    occurrences inside the prefix, and a row is flagged censored when
    the unexplored tail after its last occurrence already exceeds the
    largest gap seen, so the true bound may be larger.

    The terms must be integers.  They become dense codes in value
    order, each start position gets one packed integer key, and one
    stable sort groups the starts by word, each group in increasing
    order.  So the cost is a few numpy sorts of ``count`` entries and
    one Python step per distinct word, and the temporaries stay within
    a few arrays of ``count`` entries.
    """
    if not 0 < word_length <= count:
        raise ValueError("need 0 < word length <= prefix length")
    if len(seq) < count:
        raise ValueError("sequence provides %d of %d terms" % (len(seq), count))
    values = _values(seq, count)
    starts = count - word_length + 1
    keys, span = _word_keys(*_ranks(values), word_length, starts)
    if span > 2**16:
        keys, span = _ranks(keys)
    # numpy sorts 16-bit keys by radix, several times faster than int64
    keys = keys.astype(np.uint16 if span <= 2**16 else np.int32)
    order = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    last = np.append(first[1:], starts) - 1
    steps = np.diff(order, prepend=order[0])
    steps[first] = 0
    gaps = np.maximum.reduceat(steps, first).tolist()
    heads = order[first].tolist()
    ends = order[last].tolist()
    counts = (last - first + 1).tolist()
    report = GapReport(word_length=word_length, prefix_length=count)
    for head, end, n, gap in zip(heads, ends, counts, gaps):
        word = tuple(values[head : head + word_length].tolist())
        report.rows.append(GapRow(word, n, gap, starts - 1 - end > gap))
    return report


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


def combine(P, parts, p, a, count):
    """First ``count`` values of sum_i beta_i * ct(P^(n+k_i) Q_i) mod p^a.

    ``parts`` is a list of (shift, Q, beta) with shift >= 0.  All parts
    are read off one shared letter stream.
    """
    rows = combine_components(P, parts, p, a, count)
    mod = p**a
    out = []
    betas = [beta for _, _, beta in parts]
    for values in rows:
        out.append(sum(b * v for b, v in zip(betas, values)) % mod)
    return out


def combine_components(P, parts, p, a, count):
    """The raw tuples (ct(P^(n+k_i) Q_i))_i per index, for external use."""
    if not parts:
        raise ValueError("need at least one part")
    for shift, _, _ in parts:
        if shift < 0:
            raise ValueError("shifts must be >= 0")
    red = TildeReduction(P, [q for _, q, _ in parts], p, a)
    streams = [
        red.prefix(count + shift, which=i)[shift:]
        for i, (shift, _, _) in enumerate(parts)
    ]
    return list(zip(*streams)) if count else []


# ---------------------------------------------------------------------------
# the one-variable bound scan
# ---------------------------------------------------------------------------


@dataclass
class ScanItem:
    index: int
    poly: LaurentPoly
    p: int
    status: str  # "witness" | "no_zero" | "inconclusive"
    witness: int | None
    bound: int
    conforms: bool | None


@dataclass
class ScanReport:
    count: int
    primes: tuple
    degree_max: int
    coeff_max: int
    seed: int
    items: list = field(default_factory=list)

    @property
    def violations(self):
        return [it for it in self.items if it.conforms is False]

    @property
    def inconclusive(self):
        return [it for it in self.items if it.status == "inconclusive"]


def random_univariate(rng, degree_max, coeff_max):
    """A nonzero one-variable polynomial with bounded degree and entries."""
    if degree_max < 0 or coeff_max < 1:
        raise ValueError("need degree_max >= 0 and coeff_max >= 1")
    while True:
        terms = {}
        for e in range(-degree_max, degree_max + 1):
            c = rng.randint(-coeff_max, coeff_max)
            if c:
                terms[(e,)] = c
        if terms:
            return LaurentPoly(1, terms)


def conjecture_scan(count=200, degree_max=3, coeff_max=3, primes=(2, 3, 5),
                    seed=0, state_cap=DEFAULT_STATE_CAP):
    """Hunt for one-variable witnesses at or above p^deg(P).

    Every found witness is compared against the p^deg(P) threshold;
    rows that meet or exceed it are findings reported as violations,
    never assertion failures.  Each witness comes from zero_witness,
    which stops its closure at the first zero and re-checks the witness
    against LinRep.eval_many and, up to n0 = 2000, the oracle's whole
    prefix.  A prime above the digit cap raises ResourceLimitError
    before any scanning, so "inconclusive" only ever means that the
    state cap tripped before any zero was interned.  The bound uses
    the degree of P as given, not of P mod p.
    """
    for p in primes:
        check_digit_cap(p)
    rng = random.Random(seed)
    corpus = [random_univariate(rng, degree_max, coeff_max) for _ in range(count)]
    report = ScanReport(
        count=count, primes=tuple(primes), degree_max=degree_max,
        coeff_max=coeff_max, seed=seed,
    )
    for idx, poly in enumerate(corpus):
        for p in primes:
            bound = p ** poly.degree()
            try:
                witness = zero_witness(poly, p, state_cap)
            except ResourceLimitError:
                report.items.append(
                    ScanItem(idx, poly, p, "inconclusive", None, bound, None)
                )
                continue
            if witness is None:
                report.items.append(
                    ScanItem(idx, poly, p, "no_zero", None, bound, None)
                )
            else:
                report.items.append(
                    ScanItem(idx, poly, p, "witness", witness, bound,
                             witness < bound)
                )
    return report
