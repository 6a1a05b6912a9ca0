import json
import subprocess
import sys

import pytest

from ctseq import oracle
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
    proc = subprocess.run(
        [sys.executable, "-m", "ctseq.cli", "generate", "--poly", "@pascal",
         "-p", "2", "-n", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["1", "0", "0", "0"]
