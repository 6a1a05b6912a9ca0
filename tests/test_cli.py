import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctseq
from ctseq import engines, oracle
from ctseq.cli import main
from ctseq.textio import preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--poly", "@trinomial", "-p", "3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["zero_witness"] == 2
    assert record["linearly_recurrent"] is False
    assert record["status"] == "exact"
    assert list(record) == [
        "p", "a", "m", "window_size", "settle_s", "reachable_states",
        "zero_witness", "linearly_recurrent", "recurrence_guaranteed",
        "conjecture_bound", "naive_bound_digits", "status",
    ]


def test_classify_human(capsys):
    code, out, _ = run_cli(capsys, "classify", "--poly", "x^-1 + 1 + x", "-p", "2")
    assert code == 0
    assert "linearly recurrent: yes" in out


def test_classify_json_deterministic(capsys):
    a = run_cli(capsys, "classify", "--poly", "@motzkin", "-p", "3", "--json")
    b = run_cli(capsys, "classify", "--poly", "@motzkin", "-p", "3", "--json")
    assert a == b


def test_generate_engines_agree(capsys):
    outputs = []
    for engine in ("linrep", "dfao", "dfao-reverse", "morphism", "primepower", "oracle"):
        code, out, _ = run_cli(
            capsys, "generate", "--poly", "@catalan", "-p", "2", "-a", "2",
            "-n", "40", "--engine", engine,
        )
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1
    P, Q = preset("catalan")
    want = oracle.sequence(P, Q, 4, 40)
    assert [int(v) for v in outputs[0].split()] == want


def test_generate_preset_q_override(capsys):
    _, with_preset_q, _ = run_cli(capsys, "generate", "--poly", "@motzkin",
                                  "-p", "3", "-n", "6")
    _, with_unit_q, _ = run_cli(capsys, "generate", "--poly", "@motzkin",
                                "--q", "1", "-p", "3", "-n", "6")
    assert with_preset_q.split() == ["1", "1", "2", "1", "0", "0"]
    # central trinomial coefficients 1, 1, 3, 7, 19, 51 reduced mod 3
    assert with_unit_q.split() == ["1", "1", "0", "1", "1", "0"]


def test_export_dfao_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for path in (out1, out2):
        code, _, _ = run_cli(
            capsys, "export-dfao", "--poly", "@pascal", "-p", "2",
            "--format", "walnut", "--direction", "forward", "-o", str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("lsd_2\n")


def test_export_dfao_dot_reverse(tmp_path, capsys):
    path = tmp_path / "m.dot"
    code, _, _ = run_cli(
        capsys, "export-dfao", "--poly", "@motzkin", "-p", "3",
        "--format", "dot", "--direction", "reverse", "-o", str(path),
    )
    assert code == 0
    assert path.read_text().startswith("digraph {")


@pytest.mark.parametrize("fmt", ["walnut", "dot"])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_export_dfao_to_stdout_matches_file(tmp_path, capsys, fmt, direction):
    argv = ["export-dfao", "--poly", "@motzkin", "-p", "3", "-a", "2",
            "--format", fmt, "--direction", direction]
    path = tmp_path / "machine.txt"
    code, out, err = run_cli(capsys, *argv, "-o", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("wrote %s (" % path)
    code, out, err = run_cli(capsys, *argv, "-o", "-")
    assert code == 0
    assert out.encode() == path.read_bytes()
    assert err.startswith("wrote stdout (")


def test_export_dfao_to_redirected_stdout(tmp_path):
    # stdout is a regular file here, which "-o /dev/stdout" would reopen
    # and truncate
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctseq.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "ctseq.cli", "export-dfao", "--poly", "@pascal",
            "-p", "2", "--format", "dot", "--direction", "reverse"]
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run(argv + ["-o", str(tmp_path / "a.dot")], env=env, check=True,
                   capture_output=True)
    with open(tmp_path / "b.dot", "wb") as handle:
        proc = subprocess.run(argv + ["-o", "-"], env=env, stdout=handle,
                              stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0
    assert proc.stderr.startswith("wrote stdout (")
    assert (tmp_path / "b.dot").read_bytes() == (tmp_path / "a.dot").read_bytes()


def test_freq_output(capsys):
    code, out, _ = run_cli(capsys, "freq", "--poly", "@trinomial", "-p", "3",
                           "-n", "729")
    assert code == 0
    zeros = int(out.split("/")[0])
    assert zeros >= 53
    assert out.strip().endswith("%.6f" % (zeros / 729))


def test_gaps_output(capsys):
    code, out, _ = run_cli(capsys, "gaps", "--poly", "@motzkin", "-p", "2",
                           "-L", "1", "-n", "512")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word\tcount\tmax_gap\tcensored"
    assert len(lines) == 3  # both symbols occur


# pinned stdout of the statistics commands (the first is the README
# example); gap_stats and zero_frequency must keep it byte-identical
_GAPS_README = (
    "word\tcount\tmax_gap\tcensored\n"
    "0,0,1\t682\t8\tno\n"
    "0,1,1\t682\t8\tno\n"
    "1,0,0\t683\t8\tno\n"
    "1,1,0\t683\t8\tno\n"
    "1,1,1\t1364\t13\tno\n"
)


@pytest.mark.parametrize("argv, golden", [
    (("gaps", "--poly", "@motzkin", "-p", "2", "-L", "3", "-n", "4096"),
     _GAPS_README),
    (("freq", "--poly", "@trinomial", "-p", "3", "-n", "729"),
     "665/729 = 0.912209\n"),
    (("freq", "--poly", "@motzkin", "-p", "3", "-a", "2", "-n", "5000"),
     "1973/2500 = 0.789200\n"),
])
def test_statistics_golden_output(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == golden


@pytest.mark.parametrize("argv, digest", [
    (("gaps", "--poly", "@catalan", "-p", "3", "-a", "2", "-L", "2", "-n", "3000"),
     "37b99c3d67c9e65d911b4d1bb75e17adee18d3336246609bc4a6a97ab94cc518"),
    (("gaps", "--poly", "@trinomial", "-p", "5", "-L", "4", "-n", "3000"),
     "22138d37a5dafea218c3dc9e172282bd01141a79e5d30036504e62535d96e69d"),
])
def test_gaps_golden_digest(capsys, argv, digest):
    # 57 lines each, pinned by the SHA-256 of stdout
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == 57
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_combine_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "combine", "--poly", "x^-1 + 1 + x", "-p", "3", "-a", "1",
        "--part", "0,1,1", "--part", "0,1 - x^2,1", "-n", "10",
    )
    assert code == 0
    values = [int(v) for v in out.split()]
    assert values[2] == 2


def test_conjecture_report(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--count", "12", "--seed", "5",
                           "--primes", "2,3")
    assert code == 0
    assert "scanned 12 polynomials x 2 primes (seed 5)" in out
    assert "violations of the p^deg(P) bound:" in out


def test_oracle_check_all_presets(capsys):
    for name in ("pascal", "catalan", "motzkin", "trinomial", "apery"):
        code, out, _ = run_cli(capsys, "oracle-check", "--poly", "@%s" % name,
                               "-p", "2", "-a", "2", "-n", "60")
        assert code == 0, (name, out)
        assert out.count("PASS") == 5


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "classify", "--poly", "x +", "-p", "2")[0] == 1
    assert run_cli(capsys, "classify", "--poly", "x", "-p", "4")[0] == 1
    assert run_cli(capsys, "generate", "--poly", "x")[0] == 1  # missing -p
    assert run_cli(capsys, "combine", "--poly", "x", "-p", "2",
                   "--part", "nonsense")[0] == 1


def test_oracle_mismatch_exits_three(capsys, monkeypatch):
    import ctseq.cli as cli_mod

    real = cli_mod.engines.sequence

    def corrupted(P, Q, p, a, count, engine="linrep", red=None, **kw):
        out = real(P, Q, p, a, count, engine, red=red, **kw)
        if engine == "morphism":
            out = list(out)
            out[3] = (out[3] + 1) % p**a
        return out

    monkeypatch.setattr(cli_mod.engines, "sequence", corrupted)
    code, out, _ = run_cli(capsys, "oracle-check", "--poly", "@pascal",
                           "-p", "2", "-n", "16")
    assert code == 3
    assert "morphism: FAIL (first mismatch at n=3" in out


def test_resource_cap_exits_two(capsys):
    code, _, err = run_cli(capsys, "classify", "--poly",
                           "x^40*y^40 + x^-40*y^-40", "-p", "2")
    assert code == 2
    assert "resource limit" in err


def test_digit_cap_exits_two(capsys):
    code, out, err = run_cli(capsys, "classify", "--poly", "x^-1+1+x",
                             "-p", "1000003")
    assert code == 2
    assert err.startswith("resource limit: ")
    assert "inconclusive" not in out


def test_conjecture_digit_cap_exits_two(capsys):
    code, out, err = run_cli(capsys, "conjecture", "--count", "2",
                             "--primes", "2,103", "--seed", "1")
    assert code == 2
    assert err.startswith("resource limit: ")
    assert "INCONCLUSIVE" not in out


@pytest.mark.parametrize("argv", [
    ("generate", "--poly", "@catalan", "-p", "2", "-a", "0"),
    ("freq", "--poly", "@trinomial", "-p", "3", "-n", "0"),
    ("gaps", "--poly", "@motzkin", "-p", "2", "-L", "0", "-n", "8"),
    ("gaps", "--poly", "@motzkin", "-p", "2", "-L", "9", "-n", "8"),
])
def test_count_arguments_below_range_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_console_script_runs():
    # the child imports the same ctseq as the tests, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctseq.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ctseq.cli", "generate", "--poly", "@pascal",
         "-p", "2", "-n", "4"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["1", "0", "0", "0"]


def test_classify_p13_is_exact_and_prompt():
    # 13^5 = 371,293 reachable states fit the state cap; the whole
    # command, interpreter start included, stays under 10 s
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctseq.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ctseq.cli", "classify", "--poly",
         "x^-3+2*x^-1+1+x^2+3*x^3", "-p", "13", "--json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["status"] == "exact"
    assert record["reachable_states"] == 13**5
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# argv fuzzing: every subcommand exits with a documented code, never a traceback
# ---------------------------------------------------------------------------

_POLY = st.one_of(
    st.lists(st.sampled_from(["x", "x^-1", "x^2", "2*x^-2", "1", "3", "y",
                              "x*y^-1", "-x"]),
             min_size=1, max_size=4).map(" + ".join),
    st.sampled_from(["@pascal", "@catalan", "@motzkin", "@trinomial"]),
)
_JUNK_POLY = st.one_of(
    st.sampled_from(["@bogus", "", "x +", "x^", "(x", "x / (1+x)", "x^-1 +@"]),
    st.lists(st.sampled_from(["x", "y", "^", "+", "-", "*", "/", "2", "(", ")",
                              "@pascal"]), max_size=5).map(" ".join),
)
_JUNK_INT = st.sampled_from(["", "x", "1.5", "-1", "0", "-7"])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# subcommand -> (flag, valid values, invalid values); "--json" is a switch
_SUBCOMMANDS = {
    "classify": [("--poly", _POLY, _JUNK_POLY), ("-p", _ints(2, 5), _JUNK_INT),
                 ("-a", _ints(1, 3), _JUNK_INT), ("--json", None, None)],
    "generate": [("--poly", _POLY, _JUNK_POLY), ("--q", _POLY, _JUNK_POLY),
                 ("-p", st.sampled_from(["2", "3", "5", "103"]), _JUNK_INT),
                 ("-a", _ints(1, 3), _JUNK_INT), ("-n", _ints(1, 20), _JUNK_INT),
                 ("--engine", st.sampled_from(engines.ENGINE_NAMES),
                  st.just("bogus"))],
    "export-dfao": [("--poly", _POLY, _JUNK_POLY), ("-p", _ints(2, 3), _JUNK_INT),
                    ("-a", _ints(1, 2), _JUNK_INT),
                    ("--format", st.sampled_from(["dot", "walnut"]), st.just("svg")),
                    ("--direction", st.sampled_from(["forward", "reverse"]),
                     st.just("up")),
                    # TMP is the test's temporary directory
                    ("-o", st.sampled_from(["TMP/machine.txt", "-"]),
                     st.sampled_from(["TMP/missing/machine.txt", "TMP"]))],
    "freq": [("--poly", _POLY, _JUNK_POLY), ("-p", _ints(2, 5), _JUNK_INT),
             ("-a", _ints(1, 3), _JUNK_INT), ("-n", _ints(1, 30), _JUNK_INT)],
    "gaps": [("--poly", _POLY, _JUNK_POLY), ("-p", _ints(2, 5), _JUNK_INT),
             ("-L", _ints(1, 4), _JUNK_INT), ("-n", _ints(1, 30), _JUNK_INT)],
    "combine": [("--poly", _POLY, _JUNK_POLY), ("-p", _ints(2, 5), _JUNK_INT),
                ("-a", _ints(1, 2), _JUNK_INT),
                ("--part", st.sampled_from(["0,1,1", "2,x,3", "1,x^-1 + 2,1"]),
                 st.sampled_from(["-1,1,1", "a,x,1", "1,x+,1", "1,1", "0,@pascal,1"])),
                ("-n", _ints(1, 20), _JUNK_INT)],
    "conjecture": [("--count", _ints(0, 3), st.sampled_from(["-1", "x", ""])),
                   ("--degree-max", _ints(0, 2), st.sampled_from(["-1", "x"])),
                   ("--coeff-max", _ints(1, 2), st.sampled_from(["0", "-1"])),
                   ("--primes", st.sampled_from(["2", "3,5", "2,3"]),
                    st.sampled_from(["", "2,", "4", "103", "x", "-3"])),
                   ("--seed", _ints(0, 9), _JUNK_INT)],
    "oracle-check": [("--poly", _POLY, _JUNK_POLY), ("-p", _ints(2, 5), _JUNK_INT),
                     ("-a", _ints(1, 2), _JUNK_INT), ("-n", _ints(1, 20), _JUNK_INT)],
}


@st.composite
def _argv(draw):
    """A subcommand with valid values, then at most two flags dropped or
    given an invalid value; a long flag may take its value as
    ``--flag=VALUE``, which lets values such as ``-1,1,1`` through."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    flags = _SUBCOMMANDS[command]
    broken = draw(st.lists(st.integers(0, len(flags) - 1), max_size=2, unique=True))
    argv = [command]
    for i, (flag, good, bad) in enumerate(flags):
        how = draw(st.sampled_from(["drop", "bad"])) if i in broken else "good"
        if flag == "--json":
            argv += [flag] if how == "good" else []
        elif how != "drop":
            value = draw(good if how == "good" else bad)
            if flag.startswith("--") and draw(st.booleans()):
                argv.append("%s=%s" % (flag, value))
            else:
                argv += [flag, value]
    if command == "conjecture" and not any(a.split("=")[0] == "--count" for a in argv):
        argv += ["--count", "2"]  # the default count of 200 takes half a minute
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["combine", "--poly", "@motzkin", "-p", "3", "--part=-1,1,1", "-n", "5"])
@example(["export-dfao", "--poly", "@pascal", "-p", "2", "--format", "dot",
          "--direction", "reverse", "-o", "TMP/missing/o.dot"])
def test_cli_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("TMP", tmp, 1) if a.startswith("TMP") else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("resource limit: "), (argv, err.getvalue())
