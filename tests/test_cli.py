import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from extremal_lie import cli
from extremal_lie.cli import main
from extremal_lie.graphs import FAMILY_MIN_N, BoundsViolation
from extremal_lie.presentation import TruncatedAtCap
from extremal_lie.realizations import InvalidParameters


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


#: sha256 of the text and JSON output of `realize` over QQ, recorded
#: while the closure was still grown by `lie_closure`; the dimension is
#: the catalog rank now, and the output has not moved
REALIZE_DIGESTS = {
    ("A", "5"): (
        "2624bea86e8b96c0caa8ce013bc11cb1bfc7fe3e66a1c9cffa427b4ab989eae4",
        "55bd25d6a4694b4a5400119a4fd9cbb67f6e4677a7365d37c74edd74bd28ebba"),
    ("C", "6"): (
        "b993e3be24b3bdd2eb734991a8ce685ca2d17638a925780977c887f33e68c7cb",
        "b0c3c4d684fbc788c917f0e9a333856fbe1c8c80a7c0df4d75abdf2c8c1d74f5"),
    ("B", "5", "--gamma", "1"): (
        "997c91d030180719c3d71606a7407408540dcc541ba52642090fce1b82e7bc08",
        "dc5e0be37a83bdf71dbeb7e591a56eb2df0cc96b8ddbc8d9c51f0748642e8d4b"),
    ("D", "5", "--alpha", "2", "--beta", "3"): (
        "d2be1b86902d39d7acecd8df11022482a7fff3c7a146ef5cb9914e2208402213",
        "ce967ec812e518508751ed70e94a33100a489be95fed87c29925f4c55ad34254"),
}


@pytest.mark.parametrize("spec", list(REALIZE_DIGESTS),
                         ids=lambda spec: " ".join(spec))
def test_realize_output_digests(capsys, spec):
    """`realize` prints the same text and JSON, byte for byte, with its
    closure proved from the catalog and the form."""
    family, n, *params = spec
    for fmt, want in zip(("text", "json"), REALIZE_DIGESTS[spec]):
        code, out, _ = run(capsys, "realize", "--family", family, "--n", n,
                           *params, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("modulus", ["318665857834031151167461",
                                     "3317044064679887385961981"],
                         ids=["psi_12", "psi_13"])
def test_certify_refuses_a_modulus_past_the_primality_bound(capsys,
                                                            modulus):
    """psi_12 and psi_13 pass the Miller-Rabin bases, but are composite:
    `--field gf` refuses them with exit 2 and the bound, no traceback."""
    code, out, err = run(capsys, "certify", "--family", "A", "--n", "4",
                         "--field", "gf", modulus)
    assert code == 2 and out == ""
    assert err == (f"error: PrimeField needs p below "
                   f"318665857834031151167461 (psi_12), where its "
                   f"Miller-Rabin test is exact, got {modulus}\n")


def test_realize_a_failing_point_reports_the_catalog_rank(capsys):
    """D5 (1,3) over QQ spans 34 of 45 dimensions: `realize` exits 1 with
    the catalog rank as its dimension, and prints the text and JSON it
    printed when that dimension came from a grown closure."""
    want = {"text": "4e6b68f27fa7b55020db698a24bce0973f46d41fa54c9bd21779e951"
                    "dec3cbf4",
            "json": "b58efbb498abecf14cd6800271780048f8bba0114ddea43d4d0b2241"
                    "6e32f3c6"}
    for fmt, digest in want.items():
        code, out, _ = run(capsys, "realize", "--family", "D", "--n", "5",
                           "--alpha", "1", "--beta", "3", "--format", fmt)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert "dim 34 (expected 45)\nfail\n" in run(
        capsys, "realize", "--family", "D", "--n", "5", "--alpha", "1",
        "--beta", "3")[1]


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


def test_certify_match_against_d6_at_alpha_zero(capsys):
    """A D6 match whose candidates include beta = 0: the solver drops
    them, and the special-vector coordinate comes with each candidate,
    so nothing divides by beta."""
    code, out, err = run(capsys, "certify", "--family", "D", "--n", "6",
                         "--alpha", "0", "--beta", "1", "--field", "gf", "7",
                         "--match-against", "alpha=2,beta=3")
    assert code == 0 and err == ""
    assert json.loads(out)["match"]["verdict"] == "pass"


def test_certify_match_failure_is_one_line(capsys):
    """A match that fails exits 1 with one diagnostic line, no report and
    no traceback.  D6 over GF(5) at (1,3) has dependent catalog images,
    and the line names side 2."""
    code, out, err = run(capsys, "certify", "--family", "D", "--n", "6",
                         "--alpha", "0", "--beta", "3", "--field", "gf", "5",
                         "--match-against", "alpha=1,beta=3")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "matching failed: side 2: catalog images are dependent"]


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


HUGE = "100000000000000000000"
#: more digits than int() converts by default (sys.get_int_max_str_digits)
VAST = "1" + "0" * 4999


@pytest.mark.parametrize("argv,what", [
    (("realize", "--family", "A", "--n", HUGE), f"--n {HUGE}"),
    (("certify", "--family", "C", "--n", HUGE), f"--n {HUGE}"),
    (("certify", "--family", "D", "--n", "101", "--alpha", "2", "--beta",
      "3", "--match-against", "alpha=4,beta=8"), "--n 101"),
    (("present", "--family", "C", "--n", HUGE), f"--n {HUGE}"),
    (("present", "--edges", f"1-{HUGE}"), f"vertex {HUGE}"),
    (("present", "--edges", "1-2", "--n", "101"), "--n 101"),
    (("present", "--edges", f"1-{VAST}"), f"vertex {VAST}"),
    (("realize", "--family", "A", "--n", VAST), f"--n {VAST}"),
], ids=["realize", "certify", "match", "present", "edges", "edges-n",
        "edges-5000-digits", "n-5000-digits"])
def test_n_above_the_cap_is_refused_before_anything_is_built(
        capsys, monkeypatch, argv, what):
    """An --n or vertex above cli.MAX_N exits 2 with one line and no
    traceback.  Every builder a command could reach first is replaced
    by one that fails the test, so a missing check fails at once and
    allocates nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("built past the size check")

    for name in ("build_generators", "build_family_graph",
                 "graph_from_edges", "build_L0", "MatrixLieAlgebra"):
        monkeypatch.setattr(cli, name, refuse)
    for name in ("certify_family", "catalog_closure"):
        monkeypatch.setattr(cli.certify, name, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"parameter error: {what} is above {cli.MAX_N}, the "
                   f"largest supported\n")


@pytest.mark.parametrize("argv,message", [
    (("certify", "--family", "A", "--n", "5", "--field", "gf", VAST),
     f"--field gf takes a prime of at most {cli.MAX_PRIME_DIGITS} digits, "
     f"got one of 5000"),
    (("certify", "--family", "A", "--n", f"-{VAST}"),
     f"--n -{VAST} is below -{cli.MAX_N}"),
], ids=["field-gf", "negative-n"])
def test_numbers_too_long_for_int_are_parameter_errors(capsys, monkeypatch,
                                                       argv, message):
    """A --field gf prime or an --n with more digits than int() converts
    exits 2 with one line that names the flag, and certifies nothing."""
    monkeypatch.setattr(cli.certify, "certify_family",
                        lambda *a, **k: pytest.fail("certified"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"parameter error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("present", "--family", "D", "--n", "100"),
    ("present", "--edges", "1-100"),
], ids=["family", "edges"])
def test_n_at_the_cap_passes_the_size_check(capsys, monkeypatch, argv):
    """MAX_N itself is taken: the command gets past the check to the
    presentation, stubbed here."""
    def stop(*args, **kwargs):
        raise TruncatedAtCap("stub")

    monkeypatch.setattr(cli, "build_L0", stop)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: stub\n")


@pytest.mark.parametrize("error", [InvalidParameters, BoundsViolation])
@pytest.mark.parametrize("owner,name,argv", [
    (cli, "build_generators", ("realize", "--family", "C", "--n", "4")),
    (cli.certify, "certify_family", ("certify", "--family", "C", "--n", "4")),
    (cli.certify, "match_algebras",
     ("certify", "--family", "B", "--n", "5", "--gamma", "1", "--field",
      "gf", "101", "--match-against", "gamma=2")),
    (cli, "graph_from_edges", ("present", "--edges", "1-2")),
], ids=["realize", "certify", "match", "present-edges"])
def test_parameter_errors_exit_2_from_main(capsys, monkeypatch, error, owner,
                                           name, argv):
    """A parameter error raised by whatever a command calls exits 2 with
    one `parameter error:` line and no report: `main` maps it, not the
    command."""
    def fail(*args, **kwargs):
        raise error("stub")

    monkeypatch.setattr(owner, name, fail)
    assert run(capsys, *argv) == (2, "", "parameter error: stub\n")


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


#: the values each flag is drawn with: good and bad literals
FLAG_VALUES = {
    "--family": [["A"], ["B"], ["C"], ["D"], ["E"]],
    # the ranks every family takes come up more often
    "--n": [[str(n)] for n in (*range(8), 5, 6, 7, 6)]
           + [["-1"], ["x"], ["1e3"]],
    "--field": [["rationals"], ["gf", "4"], ["gf", "7"], ["gf"], ["reals"]],
    "--alpha": [["2"], ["4"], ["1/2"], ["-2"], ["0.5"], ["x"]],
    "--beta": [["3"], ["8"], ["-1"], ["0"], ["1/0"]],
    "--gamma": [["1"], ["2"], ["-1"], ["0"], ["x"]],
    "--seed": [["0"], ["7"], ["x"]],
    "--format": [["text"], ["json"], ["xml"]],
    "--edges": [["1-2"], ["1-2,2-3"], ["1-1"], ["2-5"], ["x"], [""]],
    "--match-against": [["alpha=4,beta=8"], ["gamma=2"], ["gamma=x"],
                        ["bad"]],
    "--structure": [["{out}"], ["{missing}"]],
    "--output": [["{out}"], ["{missing}"]],
}
#: the flags each command takes besides --family and --n
COMMAND_FLAGS = {
    "present": ["--edges", "--field", "--format", "--output", "--structure"],
    "realize": ["--alpha", "--beta", "--field", "--format", "--gamma",
                "--output"],
    "certify": ["--alpha", "--beta", "--field", "--gamma",
                "--match-against", "--output", "--seed"],
    "selftest": ["--seed"],
}


@st.composite
def cli_argv(draw):
    """An argument list: a command or none, its --family and --n most of
    the time, flags it takes, or now and then any flags, with drawn
    values (a value now and then left out), and now and then a stray
    flag or help."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS) + ["bogus", None]))
    argv = [] if command is None else [command]
    if command != "selftest":
        for flag in ("--family", "--n"):
            if draw(st.integers(0, 9)):
                argv += [flag, *draw(st.sampled_from(FLAG_VALUES[flag]))]
    pool = COMMAND_FLAGS.get(command) if draw(st.integers(0, 4)) else None
    for flag in pool or sorted(FLAG_VALUES):
        if not draw(st.booleans()):
            continue
        argv.append(flag)
        if draw(st.integers(0, 19)):
            argv += draw(st.sampled_from(FLAG_VALUES[flag]))
    return argv + draw(st.sampled_from([[]] * 8 + [["--bogus"],
                                                   ["--help"]]))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(cli_argv())
def test_every_cli_input_exits_0_1_or_2_without_a_traceback(argv):
    """The CLI contract: any argument list ends with exit code 0, 1 or
    2, argparse's own SystemExit included, and prints no traceback.
    `selftest` runs a one-criterion stand-in for the acceptance suite."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": os.path.join(tmp, "out.txt"),
                 "missing": os.path.join(tmp, "missing", "out.txt")}
        argv = [a.format(**paths) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        stand_in = [{"criterion": 1, "name": "stand-in", "passed": True,
                     "seconds": 0.0, "detail": ""}]
        with mock.patch.object(cli.acceptance, "run_all",
                               lambda seed: stand_in), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
