"""Command line front end.

Exit codes: 0 success, 1 usage or expression error, 2 a resource guard
tripped, 3 oracle-check found a mismatch.
"""

from __future__ import annotations

import argparse
import sys

from . import classify, engines, oracle, textio
from .dfao import build_forward, build_reverse
from .errors import CtseqError, ParseError, ResourceLimitError
from .primepower import build_reduction
from .textio import format_poly, parse_poly, preset, verdict_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_MISMATCH = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _preset(text):
    """The (P, Q) pair named by ``@name``."""
    try:
        return preset(text[1:])
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _load_polys(args):
    """(P, Q) from --poly/--q, resolving @preset names."""
    text = args.poly
    if text.startswith("@"):
        P, preset_q = _preset(text)
        if getattr(args, "q", None) is None:
            return P, preset_q
        Q = parse_poly(args.q)
    else:
        P = parse_poly(text)
        Q = parse_poly(args.q if getattr(args, "q", None) is not None else "1")
    nvars = max(P.nvars, Q.nvars)
    return textio._widen(P, nvars), textio._widen(Q, nvars)


def _check_counts(args):
    """-a, -n and -L are counts of at least one."""
    for flag in ("a", "n", "L"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise _UsageError("-%s must be >= 1, got %d" % (flag, value))


def _check_prime(p):
    if not _is_prime(p):
        raise _UsageError("-p expects a prime, got %d" % p)


def _add_common(sub, with_q=True, with_a=True):
    sub.add_argument("--poly", required=True,
                     help="P as an expression, or @preset "
                          "(%s)" % ", ".join(sorted(textio.PRESETS)))
    if with_q:
        sub.add_argument("--q", default=None,
                         help="Q as an expression (default 1, or the preset's Q)")
    sub.add_argument("-p", type=int, required=True, help="prime base")
    if with_a:
        sub.add_argument("-a", type=int, default=1, help="prime-power exponent (default 1)")


def build_parser():
    parser = _Parser(prog="ctseq", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="recurrence classification of ct(P^n Q) mod p^a")
    _add_common(sub)
    sub.add_argument("--json", action="store_true", help="emit the JSON record")

    sub = subs.add_parser("generate", help="print sequence terms, one per line")
    _add_common(sub)
    sub.add_argument("-n", type=int, default=100, help="number of terms (default 100)")
    sub.add_argument("--engine", default="linrep", choices=engines.ENGINE_NAMES,
                     help="evaluation route (default linrep)")

    sub = subs.add_parser("export-dfao", help="write an automaton to a file")
    _add_common(sub)
    sub.add_argument("--format", required=True, choices=("dot", "walnut"))
    sub.add_argument("--direction", required=True, choices=("forward", "reverse"))
    sub.add_argument("-o", required=True, metavar="PATH", help="output file")

    sub = subs.add_parser("freq", help="exact frequency of zero in a prefix")
    _add_common(sub)
    sub.add_argument("-n", type=int, required=True, help="prefix length")

    sub = subs.add_parser("gaps", help="empirical word-gap table")
    _add_common(sub)
    sub.add_argument("-L", type=int, required=True, help="word length")
    sub.add_argument("-n", type=int, required=True, help="prefix length")

    sub = subs.add_parser("combine", help="linear combination of shifted sequences")
    _add_common(sub, with_q=False)
    sub.add_argument("--part", action="append", required=True, metavar="K,EXPR,BETA",
                     help="shift k, coding polynomial, and coefficient (repeatable)")
    sub.add_argument("-n", type=int, default=100, help="number of terms (default 100)")

    sub = subs.add_parser("conjecture", help="scan random one-variable polynomials "
                                             "for witnesses at or above p^deg(P)")
    sub.add_argument("--degree-max", type=int, default=3)
    sub.add_argument("--coeff-max", type=int, default=3)
    sub.add_argument("--count", type=int, default=200)
    sub.add_argument("--primes", default="2,3,5", help="comma separated primes")
    sub.add_argument("--seed", type=int, default=0)

    sub = subs.add_parser("oracle-check", help="diff every engine against the oracle")
    _add_common(sub)
    sub.add_argument("-n", type=int, default=100, help="number of terms (default 100)")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args):
    P, Q = _load_polys(args)
    _check_prime(args.p)
    v = classify.verdict(P, Q, args.p, args.a)
    if args.json:
        print(verdict_to_json(v))
        return EXIT_OK
    print("P = %s" % format_poly(P.lift()))
    print("modulus: %d^%d" % (v.p, v.a))
    print("window: radius %d, size %d" % (v.m, v.window_size))
    print("settle exponent: %d" % v.settle_s)
    print("reachable states: %d" % v.reachable_states)
    print("zero witness: %s" % ("none" if v.zero_witness is None else v.zero_witness))
    print("linearly recurrent: %s" % _tri(v.linearly_recurrent))
    print("recurrence guaranteed: %s" % _tri(v.recurrence_guaranteed))
    print("bound from the one-variable conjecture: %d" % v.conjecture_bound)
    print("a priori search bound: %d decimal digits" % v.naive_bound_digits)
    print("status: %s" % v.status)
    return EXIT_OK


def _tri(value):
    return "unknown" if value is None else ("yes" if value else "no")


def _cmd_generate(args):
    P, Q = _load_polys(args)
    _check_prime(args.p)
    for value in engines.sequence(P, Q, args.p, args.a, args.n, args.engine):
        print(value)
    return EXIT_OK


def _cmd_export_dfao(args):
    P, Q = _load_polys(args)
    _check_prime(args.p)
    red = build_reduction(P, Q, args.p, args.a)
    if args.direction == "forward":
        machine = build_forward(red.p_tilde, red.reduced_codings[0][0],
                                args.p, red.modulus, rep=red.tilde_rep)
    else:
        machine = build_reverse(red.tilde_rep)
    text = machine.export(args.format)
    try:
        with open(args.o, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError("cannot write %s: %s" % (args.o, exc.strerror)) from None
    print("wrote %s (%d states)" % (args.o, machine.state_count))
    return EXIT_OK


def _cmd_freq(args):
    P, Q = _load_polys(args)
    _check_prime(args.p)
    seq = build_reduction(P, Q, args.p, args.a).prefix(args.n)
    frac = classify.zero_frequency(seq, args.n)
    print("%d/%d = %.6f" % (frac.numerator, frac.denominator, float(frac)))
    return EXIT_OK


def _cmd_gaps(args):
    P, Q = _load_polys(args)
    _check_prime(args.p)
    if args.L > args.n:
        raise _UsageError("-L %d exceeds the prefix length -n %d" % (args.L, args.n))
    seq = build_reduction(P, Q, args.p, args.a).prefix(args.n)
    report = classify.gap_stats(seq, args.L, args.n)
    print("word\tcount\tmax_gap\tcensored")
    for row in report.rows:
        word = ",".join(str(x) for x in row.word)
        print("%s\t%d\t%d\t%s" % (word, row.count, row.max_gap,
                                  "yes" if row.censored else "no"))
    return EXIT_OK


def _parse_part(text):
    pieces = text.split(",")
    if len(pieces) != 3:
        raise _UsageError("--part expects K,EXPR,BETA, got %r" % text)
    try:
        shift = int(pieces[0])
        beta = int(pieces[2])
    except ValueError:
        raise _UsageError("--part shift and coefficient must be integers: %r" % text)
    if shift < 0:
        raise _UsageError("--part shift must be >= 0: %r" % text)
    return shift, parse_poly(pieces[1]), beta


def _cmd_combine(args):
    _check_prime(args.p)
    P = _preset(args.poly)[0] if args.poly.startswith("@") else parse_poly(args.poly)
    parts = [_parse_part(text) for text in args.part]
    nvars = max([P.nvars] + [q.nvars for _, q, _ in parts])
    P = textio._widen(P, nvars)
    parts = [(k, textio._widen(q, nvars), beta) for k, q, beta in parts]
    for value in classify.combine(P, parts, args.p, args.a, args.n):
        print(value)
    return EXIT_OK


def _cmd_conjecture(args):
    for flag, low in (("count", 0), ("degree_max", 0), ("coeff_max", 1)):
        value = getattr(args, flag)
        if value < low:
            raise _UsageError("--%s must be >= %d, got %d"
                              % (flag.replace("_", "-"), low, value))
    primes = []
    for piece in args.primes.split(","):
        try:
            p = int(piece)
        except ValueError:
            raise _UsageError("--primes expects comma separated integers, got %r"
                              % args.primes) from None
        _check_prime(p)
        primes.append(p)
    report = classify.conjecture_scan(
        count=args.count, degree_max=args.degree_max, coeff_max=args.coeff_max,
        primes=tuple(primes), seed=args.seed,
    )
    witnesses = [it for it in report.items if it.status == "witness"]
    print("scanned %d polynomials x %d primes (seed %d)"
          % (report.count, len(report.primes), report.seed))
    print("witness found: %d, no zero: %d, inconclusive: %d"
          % (len(witnesses),
             sum(1 for it in report.items if it.status == "no_zero"),
             len(report.inconclusive)))
    print("violations of the p^deg(P) bound: %d" % len(report.violations))
    for item in report.violations:
        print("VIOLATION #%d p=%d deg=%d witness=%d bound=%d poly=%s"
              % (item.index, item.p, item.poly.degree(), item.witness,
                 item.bound, format_poly(item.poly)))
    for item in report.inconclusive:
        print("INCONCLUSIVE #%d p=%d poly=%s"
              % (item.index, item.p, format_poly(item.poly)))
    return EXIT_OK


def _cmd_oracle_check(args):
    P, Q = _load_polys(args)
    _check_prime(args.p)
    reference = oracle.sequence(P, Q, args.p**args.a, args.n)
    red = build_reduction(P, Q, args.p, args.a)
    failed = False
    for engine in [e for e in engines.ENGINE_NAMES if e != "oracle"]:
        got = engines.sequence(P, Q, args.p, args.a, args.n, engine, red=red)
        if got == reference:
            print("%s: PASS" % engine)
        else:
            failed = True
            first = next(i for i, (x, y) in enumerate(zip(got, reference)) if x != y)
            print("%s: FAIL (first mismatch at n=%d: %d != %d)"
                  % (engine, first, got[first], reference[first]))
    return EXIT_MISMATCH if failed else EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "generate": _cmd_generate,
    "export-dfao": _cmd_export_dfao,
    "freq": _cmd_freq,
    "gaps": _cmd_gaps,
    "combine": _cmd_combine,
    "conjecture": _cmd_conjecture,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_counts(args)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except CtseqError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
