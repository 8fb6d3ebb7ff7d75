import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extremal_lie.cli import main
from extremal_lie.graphs import FAMILY_MIN_N


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_present_family(capsys):
    code, out, _ = run(capsys, "present", "--family", "D", "--n", "5")
    assert code == 0
    assert "dim 45 (expected 45)" in out


def test_present_custom_edges(capsys):
    code, out, _ = run(capsys, "present", "--edges", "1-2")
    assert code == 0
    assert "dim 3" in out


def test_present_edges_with_family_is_a_usage_error(capsys):
    for edges in ("1-2", ""):
        code, out, err = run(capsys, "present", "--edges", edges,
                             "--family", "D", "--n", "5")
        assert code == 2 and out == "" and "--family" in err
    code, out, _ = run(capsys, "present", "--edges", "1-2", "--n", "2")
    assert code == 0 and "dim 3" in out


def test_present_json_schema(capsys):
    code, out, _ = run(capsys, "present", "--family", "C", "--n", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 10 and payload["dim_expected"] == 10
    assert len(payload["basis"]) == 10


def test_present_structure_export(capsys, tmp_path):
    path = tmp_path / "sc.txt"
    code, _, _ = run(capsys, "present", "--edges", "1-2",
                     "--structure", str(path))
    assert code == 0
    assert path.read_text() == "0 1 2 1\n"


def test_present_bad_family_n(capsys):
    code, _, err = run(capsys, "present", "--family", "D", "--n", "4")
    assert code == 2 and "parameter error" in err


def test_present_bad_custom_edge(capsys):
    code, _, err = run(capsys, "present", "--edges", "1-2,2-5", "--n", "3")
    assert code == 2 and "parameter error" in err


@pytest.mark.parametrize("argv,edge", [
    (("--edges", "0-1"), "0-1 for n=1"),
    (("--edges", "1-2", "--n", "-3"), "1-2 for n=-3"),
])
def test_bad_edge_message_names_the_edge_as_i_j(capsys, argv, edge):
    code, out, err = run(capsys, "present", *argv)
    assert code == 2 and not out
    assert err == f"parameter error: bad edge {edge}\n"
    assert "frozenset" not in err and "Traceback" not in err


def test_realize_pass(capsys):
    code, out, _ = run(capsys, "realize", "--family", "C", "--n", "6",
                       "--field", "gf", "2147483629")
    assert code == 0
    assert "dim 21 (expected 21)" in out and out.strip().endswith("pass")


def test_realize_parameter_error(capsys):
    code, _, err = run(capsys, "realize", "--family", "D", "--n", "5",
                       "--alpha", "-2", "--beta", "3")
    assert code == 2 and "parameter error" in err


def test_realize_missing_parameter(capsys):
    code, _, err = run(capsys, "realize", "--family", "B", "--n", "5")
    assert code == 2


def test_rational_literal_rejects_floats(capsys):
    with pytest.raises(SystemExit) as info:
        main(["realize", "--family", "B", "--n", "5", "--gamma", "0.5"])
    assert info.value.code == 2


def test_field_flag_rejects_unknown(capsys):
    code, _, err = run(capsys, "realize", "--family", "C", "--n", "6",
                       "--field", "reals")
    assert code == 2


def test_certify_json_and_exit_code(capsys):
    code, out, _ = run(capsys, "certify", "--family", "A", "--n", "5",
                       "--field", "gf", "2147483629")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass" and payload["dim"] == 24


def test_certify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("EXTREMAL_LIE_SEED", "11")
    _, out1, _ = run(capsys, "certify", "--family", "C", "--n", "4",
                     "--field", "gf", "2147483629", "--seed", "5")
    _, out2, _ = run(capsys, "certify", "--family", "C", "--n", "4",
                     "--field", "gf", "2147483629", "--seed", "6")
    assert out1 == out2  # the env seed wins over both --seed values


def test_certify_rational_parameters(capsys):
    code, out, _ = run(capsys, "certify", "--family", "B", "--n", "5",
                       "--gamma", "1/2", "--field", "gf", "2147483629")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass" and payload["dim"] == 36


def test_certify_match_against(capsys):
    code, out, _ = run(capsys, "certify", "--family", "B", "--n", "5",
                       "--gamma", "1", "--field", "gf", "2147483629",
                       "--match-against", "gamma=2")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"]["verdict"] == "pass"
    assert payload["match"]["params1"] != payload["match"]["params2"]


def test_certify_match_against_bad_key(capsys):
    code, _, err = run(capsys, "certify", "--family", "B", "--n", "5",
                       "--gamma", "1", "--match-against", "alpha=2")
    assert code == 2


def test_certify_match_against_repeated_key(capsys):
    """A key given twice is refused rather than silently taking the last
    value."""
    code, out, err = run(capsys, "certify", "--family", "B", "--n", "5",
                         "--gamma", "1", "--field", "gf", "101",
                         "--match-against", "gamma=2,gamma=3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "repeats 'gamma'" in err


def test_certify_empty_match_against_is_refused(capsys):
    """An empty --match-against is a malformed spec, not an absent one."""
    code, out, err = run(capsys, "certify", "--family", "A", "--n", "5",
                         "--field", "gf", "101", "--match-against", "")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--match-against" in err


@pytest.mark.parametrize("argv,target", [
    (("present", "--edges", "1-2", "--structure"), "missing/sc.txt"),
    (("present", "--family", "A", "--n", "4", "--output"), "missing/x"),
    (("certify", "--family", "C", "--n", "4", "--field", "gf", "101",
      "--output"), "."),
], ids=["structure", "present-output", "output-directory"])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv, target):
    path = str(tmp_path / target)
    code, _, err = run(capsys, *argv, path)
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"error: cannot write {path!r}: ")


def test_unwritable_structure_emits_no_report(capsys, tmp_path):
    """The structure file is written before the report, so a path that
    cannot be written leaves stdout empty."""
    path = str(tmp_path / "missing" / "sc.txt")
    code, out, err = run(capsys, "present", "--edges", "1-2",
                         "--structure", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path!r}: ")


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "certify", "--family", "C", "--n", "4",
                       "--field", "gf", "2147483629",
                       "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ("realize", "--family", "B", "--n", "5", "--gamma", "1/7",
     "--field", "gf", "7"),
    ("certify", "--family", "B", "--n", "5", "--gamma", "1/7",
     "--field", "gf", "7"),
    ("certify", "--family", "B", "--n", "5", "--gamma", "1",
     "--field", "gf", "7", "--match-against", "gamma=1/7"),
])
def test_parameter_denominator_divisible_by_p(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "parameter error" in err and "1/7" in err


@pytest.mark.parametrize("command", ["realize", "certify"])
def test_n_zero_is_a_bounds_error(capsys, command):
    code, _, err = run(capsys, command, "--family", "C", "--n", "0")
    assert code == 2 and "parameter error" in err
    assert "needs --family and --n" not in err


PARAMS = {"A": (), "B": ("--gamma", "1"), "C": (),
          "D": ("--alpha", "2", "--beta", "3")}


@pytest.mark.parametrize("command", ["present", "realize", "certify"])
@pytest.mark.parametrize("family,n", [(f, n) for f, lo in FAMILY_MIN_N.items()
                                      for n in (0, lo - 1)])
def test_n_below_the_family_minimum_is_a_parameter_error(
        capsys, command, family, n):
    params = () if command == "present" else PARAMS[family]
    code, _, err = run(capsys, command, "--family", family, "--n", str(n),
                       *params)
    assert code == 2 and "parameter error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("realize", "--family", "B", "--n", "5"),
    ("realize", "--n", "5"),
    ("certify", "--family", "B", "--n", "5", "--gamma", "1",
     "--match-against", "alpha=2"),
    ("certify", "--family", "B", "--n", "5", "--gamma", "1",
     "--match-against", "gamma"),
])
def test_usage_errors_have_one_prefix(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "error: error:" not in err


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv", [
    ["present", "--edges", "1-2"],
    ["present", "--family", "D", "--n", "9", "--format", "json"]],
    ids=["buffered", "large"])
def test_closed_stdout_exits_quietly(argv):
    """A reader that goes away before the report is written (as in
    `| head`) gives exit status 1 and nothing on stderr.  The read end
    is closed before the child writes anything, so every write fails,
    both the one of a small report (at the final flush) and that of a
    large one (inside `print`)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen([sys.executable, "-m", "extremal_lie.cli",
                             *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""
