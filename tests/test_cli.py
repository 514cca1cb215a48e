"""Exit-code contract and deterministic output of the command surface."""

import argparse
import errno
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

import holtkit
from holtkit import cli
from holtkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_of_catalog_names(capsys):
    code, out, _ = run(capsys, "bracket", "K3_4", "K2_3")
    assert code == 0
    assert out == "108*k2^3\n"


def test_bracket_accepts_literals(capsys):
    code, out, _ = run(capsys, "bracket", "px", "x")
    assert code == 0
    assert out == "-1\n"


def test_bracket_mixed_name_and_literal(capsys):
    code, out, _ = run(capsys, "bracket", "K2_3", "H_U")
    assert code == 0
    assert out == "0\n"


def test_bracket_parameter_substitution(capsys):
    code, out, _ = run(capsys, "bracket", "K3_4", "K2_3", "--k2", "1/3")
    assert code == 0
    assert out == "4\n"


def test_bracket_rejects_garbage():
    with pytest.raises(SystemExit) as exc_info:
        main(["bracket", "K3_4", "no*such&name"])
    assert exc_info.value.code == 2


def test_bracket_rejects_vector_field_argument():
    with pytest.raises(SystemExit) as exc_info:
        main(["bracket", "Gamma_H", "K2_3"])
    assert exc_info.value.code == 2


def test_bracket_rejects_an_integer_past_the_conversion_limit(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["bracket", "x", "1" * 5000])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "integer of 5000 digits is too long" in err


@pytest.mark.parametrize("value", ["1e99999999", "1E5", "2.5e-3"])
def test_bracket_rejects_exponent_notation_at_once(capsys, value):
    # Fraction("1e99999999") would compute 10**99999999 before returning.
    # main runs on a daemon thread, so that a hang fails the test rather
    # than blocking the suite; one C-level call such as that power still
    # holds the interpreter lock, so the join can only end once it returns.
    exits = []

    def target():
        try:
            main(["bracket", "x", "x", "--k2", value])
        except SystemExit as exc:
            exits.append(exc.code)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert exits == [2]
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"holtkit: error: --k2 must be an integer or p/q, got {value!r}"


def test_bracket_checks_its_parameters_before_computing_the_bracket(capsys):
    with mock.patch.object(cli, "poisson_bracket", wraps=cli.poisson_bracket) as spy:
        with pytest.raises(SystemExit) as exc_info:
            main(["bracket", "K3_4", "K2_3", "--k2", "bogus"])
        assert exc_info.value.code == 2
        assert spy.call_count == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "holtkit: error: --k2 must be an integer or p/q, got 'bogus'")
        # an expression error is still reported ahead of a parameter error
        with pytest.raises(SystemExit) as exc_info:
            main(["bracket", "x + $", "x", "--k2", "bogus"])
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "holtkit: error: cannot parse 'x + $': unexpected character '$' at position 4: '$'")
        assert spy.call_count == 0
        assert run(capsys, "bracket", "K3_4", "K2_3", "--k2", "1/3") == (0, "4\n", "")
        assert spy.call_count == 1


def test_bracket_whose_coefficient_is_too_long_to_print_exits_2(capsys):
    # 108 * k2^3 at k2 = 10^1500 has 4503 digits, past the int-to-str limit
    k2 = "1" + "0" * 1500
    with pytest.raises(SystemExit) as exc_info:
        main(["bracket", "K3_4", "K2_3", "--k2", k2])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"holtkit: error: the bracket of 'K3_4' and 'K2_3' at --k2 '{k2[:40]}'... "
        "(1501 characters) has a coefficient too long to print")


def main_within(seconds, argv):
    """main(argv)'s exit code, run on a daemon thread that must end in time."""
    exits = []

    def target():
        try:
            exits.append(main(argv))
        except SystemExit as exc:
            exits.append(exc.code)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive()
    return exits[0]


@pytest.mark.parametrize("first, values", [
    ("k2^99999999*x", ["--k2", "3"]),
    ("k2^99999999*x", ["--k2", "1/3"]),  # the denominator is the long part
    ("k2^99999999*x + k2*x - 5*k2^2*x", ["--k2", "3"]),  # the top power outweighs the rest
    ("k1^99999999*k2^5*x + 7*px", ["--k1", "6/5", "--k2", "1/2"]),
    ("k2^20000*x", ["--k2", "3"]),
    # past the bit budget, though the two terms cancel to 0
    ("k2^99999999*x - k3^99999999*x", ["--k2", "3", "--k3", "3"]),
    # a value near 1 whose numerator and denominator have 600 million digits
    ("k2^100000000*x", ["--k2", "1000001/1000000"]),
])
def test_bracket_refuses_a_power_too_long_to_print_before_computing_it(capsys, first, values):
    # substituting first would compute 3^99999999 (47.7 million digits)
    assert main_within(10, ["bracket", first, "px", *values]) == 2
    err = capsys.readouterr().err
    at = ", ".join(f"{k} {v!r}" for k, v in zip(values[::2], values[1::2]))
    assert err.splitlines()[-1] == (f"holtkit: error: the bracket of {first!r} and 'px' "
                                    f"at {at} has a coefficient too long to print")


@pytest.mark.parametrize("first, values, out", [
    ("k2^2000*x", ["--k2", "3"], str(3**2000)),
    # two 9543-digit terms that cancel exactly
    ("k2^20000*x - k3^20000*x", ["--k2", "3", "--k3", "3"], "0"),
    ("k2^20000*x - k3^20000*x + k2*x", ["--k2", "3", "--k3", "3"], "3"),
    ("k1^99999999*k2^99999999*x", ["--k1", "-1", "--k2", "1"], "-1"),
    ("k2^99999999*x + x", ["--k2", "0"], "1"),
])
def test_bracket_prints_what_substitution_leaves_short(capsys, first, values, out):
    assert main_within(10, ["bracket", first, "px", *values]) == 0
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize("argv", [
    ("bracket", "x", "1" * 5000),
    ("bracket", "x", "x+" * 2500),
    ("bracket", "x", "x", "--k2", "1/" * 2500),
    # a 6000-digit coefficient, too long to print
    ("bracket", "9" * 3000 + "*x" + "+x" * 999, "9" * 3000 + "*px" + "+x" * 997 + "+py"),
])
def test_a_long_rejected_argument_is_cut_short_in_the_error(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    line = err.splitlines()[-1]
    assert err.count("error:") == 1 and len(line) < 200
    assert f"'{argv[-1][:40]}'... (5000 characters)" in line


LONG = "z" * 5000
SIM = ("simulate", "--potential", "U", "--start", "0,1,0,0")


@pytest.mark.parametrize("argv", [
    ("simulate", "--potential", "U", f"--start=0,1,0,{LONG}"),
    ("simulate", "--potential", LONG, "--start", "0,1,0,0"),
    (*SIM, "--invariants", LONG),
    (*SIM, "--invariants", f"H_U,{LONG}"),
    ("catalog", "show", LONG),
], ids=["start", "potential", "invariants", "second-invariant", "catalog-show"])
def test_a_long_unknown_name_or_start_is_cut_short_in_the_error(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and len(err.encode()) < 300
    assert "... (5000 characters)" in err


USAGE = "usage: holtkit [-h] {verify,bracket,catalog,simulate} ...\n"


UNKNOWN_NOPE = "\"unknown catalog name 'nope'; see names()\""


# the error lines for short arguments, as written before long ones were cut;
# integrate refuses a non-finite start, after the settings are checked
@pytest.mark.parametrize("argv, line", [
    (("catalog", "show", "nope"), UNKNOWN_NOPE),
    (("simulate", "--potential", "nope", "--start", "0,1,0,0"), UNKNOWN_NOPE),
    ((*SIM, "--invariants", "H_U,nope"), UNKNOWN_NOPE),
    (("catalog", "show", "a'b"), r"""'unknown catalog name "a\'b"; see names()'"""),
    (("simulate", "--potential", "U", "--start", "0,1,0,zz"),
     "bad --start value '0,1,0,zz': could not convert string to float: 'zz'"),
    (("simulate", "--potential", "U", "--start", "0,1,0, zz "),
     "bad --start value '0,1,0, zz ': could not convert string to float: ' zz '"),
    (("simulate", "--potential", "U", "--start", "0,nan,0,0"),
     "start = (0.0, nan, 0.0, 0.0) must be a finite point"),
], ids=["show", "potential", "invariants", "quote", "start", "start-spaces", "start-nan"])
def test_short_rejected_arguments_keep_their_error_line(capsys, argv, line):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    assert exc_info.value.code == 2
    assert capsys.readouterr().err == f"{USAGE}holtkit: error: {line}\n"


SIM_USAGE = (
    "usage: holtkit simulate [-h] --potential POTENTIAL --start X,Y,PX,PY [--h H]\n"
    "                        [--t-end T_END] [--integrator {leapfrog2,composed4}]\n"
    "                        [--y-min Y_MIN] [--k1 K1] [--k2 K2] [--k3 K3]\n"
    "                        [--out PATH] [--invariants NAMES]\n")


def sim_error(capsys, monkeypatch, *extra):
    """stderr of a simulate call that exits 2, with the usage wrapped at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc_info:
        main([*SIM, *extra])
    assert exc_info.value.code == 2
    return capsys.readouterr().err


# captured before the float options were cut
@pytest.mark.parametrize("extra, line", [
    (("--h", "abc"), "argument --h: invalid float value: 'abc'"),
    (("--t-end", ","), "argument --t-end: invalid float value: ','"),
], ids=["h", "t-end"])
def test_a_short_bad_float_option_keeps_its_stderr(capsys, monkeypatch, extra, line):
    err = sim_error(capsys, monkeypatch, *extra)
    assert err == f"{SIM_USAGE}holtkit simulate: error: {line}\n"


@pytest.mark.parametrize("option", ["--h", "--t-end", "--y-min", "--k1", "--k2", "--k3"])
def test_a_long_bad_float_option_is_cut_short_in_the_error(capsys, monkeypatch, option):
    err = sim_error(capsys, monkeypatch, option, LONG)
    assert err == (f"{SIM_USAGE}holtkit simulate: error: argument {option}: "
                   f"invalid float value: '{LONG[:40]}'... (5000 characters)\n")
    assert len(err.encode()) - len(SIM_USAGE) < 200


def stderr_of(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    assert exc_info.value.code == 2
    return capsys.readouterr().err


# argparse's own rejections: a choice, a subcommand, an unrecognized argument
# and a float, given apart or as --option=value
@pytest.mark.parametrize("argv", [
    (*SIM, "--integrator", LONG),
    (*SIM, f"--integrator={LONG}"),
    (LONG,),
    ("verify", LONG),
    (*SIM, f"--h={LONG}"),
], ids=["integrator", "integrator=", "subcommand", "unrecognized", "h="])
def test_a_long_argument_argparse_rejects_is_cut_short(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    err = stderr_of(capsys, argv)
    # the simulate usage is 282 bytes; argparse's wording around the cut
    # argument differs between Python versions, so only the cut is pinned
    assert err.count("error:") == 1 and len(err.encode()) < 500
    assert f"'{LONG[:40]}'... (5000 characters)" in err


@pytest.mark.parametrize("argv", [
    (*SIM, "--integrator", "zz"),
    (*SIM, "--integrator=zz"),
    ("zz",),
    ("verify", "zz"),
    (*SIM, "--h", "abc"),
    (*SIM, "--invariants", LONG[:40]),
], ids=["integrator", "integrator=", "subcommand", "unrecognized", "h", "40-characters"])
def test_a_short_argument_argparse_rejects_keeps_its_stderr(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    err = stderr_of(capsys, argv)
    monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
    assert err == stderr_of(capsys, argv)


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of a call that returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SHORT_SIM = ("simulate", "--potential", "U", "--start", "0,1,0.5,0.5",
             "--t-end", "0.002", "--h", "0.001")


# values that argparse on its own reads as option names, each given after
# its option (a later option overrides the one in SHORT_SIM)
@pytest.mark.parametrize("argv", [
    *((*SHORT_SIM, option, "-1e-3")
      for option in ("--h", "--t-end", "--y-min", "--k1", "--k2", "--k3")),
    (*SHORT_SIM, "--start", "-0.005,1,0.5,0.5"),
    *(("bracket", f"{k}^5*x", "px", f"--{k}", "-1/3") for k in ("k1", "k2", "k3")),
    ("bracket", "x", "px", "--k1", "-1e5"),
], ids=lambda argv: " ".join(argv[-2:]) if argv[0] == "simulate" else " ".join(argv[1:]))
def test_a_negative_value_after_its_option_reads_as_its_equals_form(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    *head, option, value = argv
    assert outcome(capsys, argv) == outcome(capsys, [*head, f"{option}={value}"])


def test_an_argument_of_minus_and_a_digit_is_a_value_and_minus_a_letter_needs_a_double_dash(
        capsys):
    assert run(capsys, "bracket", "k2^5*x", "px", "--k2", "-1/3") == (0, "-1/243\n", "")
    assert run(capsys, "bracket", "-1/2*x", "px") == (0, "-1/2\n", "")
    assert run(capsys, "bracket", "--", "-x", "px") == (0, "-1\n", "")
    assert stderr_of(capsys, ["bracket", "-x", "px"]).endswith(
        "error: the following arguments are required: second\n")


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "U")
    assert code == 0
    assert out == "k2*x*u^-2 + k3*u^-2\n"


def test_catalog_show_unknown_name():
    with pytest.raises(SystemExit) as exc_info:
        main(["catalog", "show", "W_h9"])
    assert exc_info.value.code == 2


def test_catalog_list_has_all_entries(capsys):
    from holtkit import catalog
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    # captured before K1-K3 became PhasePoly generators
    assert out == (Path(__file__).parent / "data" / "catalog_list.txt").read_text()
    lines = out.strip().split("\n")
    assert len(lines) == len(catalog.names())
    for line in lines:
        name, kind, order, source = line.split("\t")
        assert kind in ("potential", "hamiltonian", "integral", "vectorfield")
        assert order.isdigit()
        assert source


def test_verify_passes_and_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--out", str(out_path))
    assert code == 0
    assert "all checks passed" in out
    doc = json.loads(out_path.read_text())
    assert doc["all_passed"] is True
    assert all("millis" in c for c in doc["checks"])
    assert "millis" not in out  # stdout stays byte-stable across runs


def test_verify_stdout_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify")
    _, second, _ = run(capsys, "verify")
    assert first == second


def test_simulate_writes_table_and_summary(tmp_path, capsys):
    out_path = tmp_path / "traj.tsv"
    code, out, _ = run(capsys, "simulate", "--potential", "U", "--k2", "1",
                       "--start", "0,1,0.5,0.5", "--h", "0.01",
                       "--t-end", "0.1", "--out", str(out_path))
    assert code == 0
    table = out_path.read_text()
    header = table.split("\n", 1)[0].split("\t")
    assert header == ["t", "x", "y", "px", "py", "H_U", "K2_3", "K3_4", "K4_6"]
    assert "drift H_U:" in out
    assert "samples: 11" in out


# stdout written by the per-term loop evaluator; the generated evaluator
# must reproduce it byte for byte
GOLDEN_RUNS = {
    "V_h3_k": ("--k1", "0.5", "--k2", "0.25", "--k3", "0.125", "--start", "0.5,1,0.5,6"),
    "U": ("--k2", "1", "--start", "0,1,0.5,0.5"),
}


@pytest.mark.parametrize("integrator", ["leapfrog2", "composed4"])
@pytest.mark.parametrize("potential", sorted(GOLDEN_RUNS))
def test_simulate_stdout_matches_golden(capsys, potential, integrator):
    code, out, err = run(capsys, "simulate", "--potential", potential,
                         *GOLDEN_RUNS[potential], "--h", "0.01", "--t-end", "1",
                         "--integrator", integrator)
    golden = Path(__file__).parent / "data" / f"simulate_{potential}_{integrator}.txt"
    assert (code, err) == (0, "")
    assert out == golden.read_text()


def test_simulate_table_to_stdout_when_no_out(capsys):
    code, out, _ = run(capsys, "simulate", "--potential", "U", "--k2", "1",
                       "--start", "0,1,0.5,0.5", "--h", "0.05", "--t-end", "0.1")
    assert code == 0
    assert out.startswith("t\tx\ty\tpx\tpy")


def test_simulate_invariant_selection(capsys):
    code, out, _ = run(capsys, "simulate", "--potential", "U", "--k2", "1",
                       "--start", "0,1,0.5,0.5", "--h", "0.05", "--t-end", "0.1",
                       "--invariants", "H_U")
    assert code == 0
    assert "drift H_U:" in out
    assert "K2_3" not in out


def test_simulate_tracks_no_invariant_when_the_list_is_empty(capsys):
    outs = [run(capsys, "simulate", "--potential", "U", "--k2", "1",
                "--start", "0,1,0.5,0.5", "--h", "0.05", "--t-end", "0.1",
                "--invariants", names) for names in ("", ",")]
    assert outs[0] == outs[1]
    code, out, _ = outs[0]
    assert code == 0
    assert out.splitlines()[0] == "t\tx\ty\tpx\tpy"
    assert "drift" not in out


def test_simulate_tracks_a_repeated_invariant_twice(capsys):
    code, out, _ = run(capsys, "simulate", "--potential", "U", "--k2", "1",
                       "--start", "0,1,0.5,0.5", "--h", "0.05", "--t-end", "0.1",
                       "--invariants", "K2_3,K2_3")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line]
    assert rows[0] == ["t", "x", "y", "px", "py", "K2_3", "K2_3"]
    assert len(rows) == 4 and all(row[5] == row[6] for row in rows)
    assert out.count("drift K2_3:") == 2


def test_simulate_domain_abort_exit_code(capsys):
    code, out, err = run(capsys, "simulate", "--potential", "U", "--k2", "1",
                         "--start", "0,1,0.5,0.5", "--h", "0.001", "--t-end", "10")
    assert code == 3
    assert "aborted" in err


@pytest.mark.parametrize("extra, cause", [
    (("--k2", "1e308"), "finite"),    # the state turns infinite mid-run
    (("--k3", "1e300"), "overflow"),  # a power in the force overflows
])
def test_simulate_blow_up_is_a_domain_error(tmp_path, capsys, extra, cause):
    code, _, err = run(capsys, "simulate", "--potential", "U", "--start", "0,1,0,0",
                         *extra, "--h", "0.001", "--t-end", "0.01",
                         "--out", str(tmp_path / "t.tsv"))
    assert code == 3
    assert err.startswith("domain error:") and cause in err
    assert err.count("\n") == 1


# every exit-3 message in full; a non-finite state and a y-guard abort
# name the time of the step
EXIT_3_RUNS = [
    (("--start", "0,1,0,0", "--k2", "1e308", "--t-end", "0.01"),
     "domain error: the state is not finite at t = 0.001: (x, y, px, py) = "
     "(-4.999999999999999e+301, 1.0, -1e+305, -inf)\n"),
    (("--start", "0,1,0,0", "--k3", "1e300", "--t-end", "0.01"),
     "domain error: evaluation overflows at (x, y, px, py) = "
     "(0.0, 3.333333333333333e+293, 0.0, 3.3333333333333334e+296)\n"),
    (("--start", "0,1,0.5,0.5", "--k2", "1", "--t-end", "10"),
     "trajectory aborted: y = -0.006818968571579523 fell to or below the "
     "guard 1e-06 at t = 5.87\n"),
    # an invariant, not the force, overflows at the first sample
    (("--start", "0,1,1e52,0", "--t-end", "0.01"),
     "domain error: evaluation overflows at (x, y, px, py) = (0.0, 1.0, 1e+52, 0.0)\n"),
    # the y guard aborts the steps before that invariant overflow is reached
    (("--start", "0,1e-5,1e52,-1", "--t-end", "0.01"),
     "trajectory aborted: y = -0.00099 fell to or below the guard 1e-06 at t = 0.001\n"),
    # an invariant's parameter powers overflow where the force's do not
    (("--k2", "1", "--k1", "1e200", "--invariants", "J_h2_4_k", "--start", "0,1,0.5,0.5",
      "--t-end", "0.01"),
     "domain error: parameter powers overflow at k1 = 1e+200, k2 = 1.0, k3 = 0.0\n"),
    # every step is taken before that overflow is raised, so the y guard's comes first
    (("--k2", "1", "--k1", "1e200", "--invariants", "J_h2_4_k", "--start", "0,1,0.5,0.5",
      "--t-end", "10"),
     "trajectory aborted: y = -0.006818968571579523 fell to or below the "
     "guard 1e-06 at t = 5.87\n"),
]


@pytest.mark.parametrize("extra, stderr", EXIT_3_RUNS,
                         ids=["state-blow-up", "force-overflow", "y-guard",
                              "invariant-overflow", "y-guard-before-invariant-overflow",
                              "invariant-parameter-overflow",
                              "y-guard-before-invariant-parameter-overflow"])
def test_simulate_exit_3_stderr_is_pinned(tmp_path, capsys, extra, stderr):
    out_path = tmp_path / "t.tsv"
    code, out, err = run(capsys, "simulate", "--potential", "U", *extra,
                         "--h", "0.001", "--out", str(out_path))
    assert (code, out, err) == (3, "", stderr)
    assert not out_path.exists()


def test_an_invariant_coefficient_folded_to_inf_is_not_an_exit_3(capsys):
    """6*k2 folds to inf at k2 = 1e308 without raising, so the invariant
    reads nan and inf, its drift nan, and the run still exits 0: exit 3
    takes an overflow only when it raises."""
    code, out, err = run(capsys, "simulate", "--potential", "V_h1", "--k2", "1e308",
                         "--start", "0,1,0.5,0.5", "--h", "0.001", "--t-end", "0.002",
                         "--invariants", "J_h1_3_k")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == \
        "drift J_h1_3_k: initial = nan, max|dI|/max(|I0|,1) = nan"


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("simulate", "--potential", "U", "--k2", "1", "--start", "0,1,0.5,0.5", "--t-end", "0.01"),
])
def test_unwritable_out_is_an_argument_error(tmp_path, capsys, argv):
    # an empty --out names no file either, and neither command writes stdout
    # first: verify refuses the path before its suite runs, and simulate never
    # falls back to stdout; the path is quoted, so an empty one shows, and cut
    # as other arguments are
    missing = str(tmp_path / "missing" / "out.txt")
    for path, shown in ((missing, cli._quoted(missing)), ("", "''")):
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--out", path])
        assert exc_info.value.code == 2
        out, err = capsys.readouterr()
        assert err == f"holtkit: error: cannot write --out {shown}: {os.strerror(errno.ENOENT)}\n"
        assert out == ""


def test_simulate_rejects_bad_start():
    for bad in ("0,1", "a,b,c,d"):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--potential", "U", "--start", bad])
        assert exc_info.value.code == 2


@pytest.mark.parametrize("extra", [
    ("--h", "nan"),
    ("--h", "inf"),
    ("--t-end", "inf"),
    ("--t-end", "nan"),
    ("--t-end=-1",),
    ("--t-end", "0"),
    ("--y-min", "nan"),
    ("--k2", "nan"),
    ("--k3", "-inf"),
    ("--h", "0.3", "--t-end", "1"),
    ("--h", "5e-324", "--t-end", "1"),
    ("--h", "1e-308", "--t-end", "1e308"),
    ("--h", "1e-300", "--t-end", "1"),
    ("--h", "1.5e308", "--t-end", "1.5e308", "--integrator", "composed4"),
    ("--start=0,nan,0.5,0.5",),
    ("--start=inf,1,0.5,0.5",),
    ("--start=0,1e-7,0,0",),
])
def test_simulate_rejects_bad_numbers(capsys, extra):
    argv = ["simulate", "--potential", "U", "--start", "0,1,0.5,0.5", *extra]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_refuses_to_track_a_vector_field(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--potential", "U", "--start", "0,1,0.5,0.5",
              "--invariants", "Gamma_H"])
    assert exc_info.value.code == 2
    assert "Gamma_H is a vector field and cannot be tracked" in capsys.readouterr().err


def test_simulate_rejects_non_potential(capsys):
    for name in ("H_U", "K2_3", "X2"):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--potential", name, "--start", "0,1,0.5,0.5"])
        assert exc_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage: holtkit [-h] {verify,bracket,catalog,simulate} ...\n"
                       f"holtkit: error: {name} is not a potential\n")


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["catalog", "list"],
    ["simulate", "--potential", "U", "--k2", "1", "--start", "0,1,0.5,0.5", "--t-end", "1"],
], ids=["verify", "catalog_list", "simulate"])
def test_a_closed_stdout_ends_quietly_with_exit_141(argv):
    """A reader that has gone, as `| head` leaves it: no traceback, and the
    exit code a shell gives a process that SIGPIPE ended."""
    env = dict(os.environ, PYTHONPATH=str(Path(holtkit.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "holtkit", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [
    ["verify"],
    ["catalog", "list"],
    ["simulate", "--potential", "U", "--k2", "1", "--start", "0,1,0.5,0.5", "--t-end", "1"],
], ids=["verify", "catalog_list", "simulate"])
def test_a_failed_stdout_write_is_an_exit_2_with_one_line(argv):
    """A stdout that refuses the text, as a full disk does, is reported in
    one line with exit 2, not a traceback with exit 1 (a failed check)."""
    env = dict(os.environ, PYTHONPATH=str(Path(holtkit.__file__).resolve().parents[1]))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "holtkit", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stderr.decode() == \
        f"holtkit: error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n"


def test_unknown_subcommand_is_an_argument_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the README's code blocks: (language, body)
README_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def _readme_commands():
    """(argv, the output lines shown after it) for each `$ holtkit` line of
    the README, its backslash continuations joined and its comment dropped."""
    commands = []
    for _, body in README_BLOCKS:
        for command in re.split(r"^\$ ", body.replace("\\\n", " "), flags=re.MULTILINE)[1:]:
            line, *shown = command.splitlines()
            argv = shlex.split(line, comments=True)
            assert argv[0] == "holtkit", line
            commands.append((argv[1:], [text for text in shown if text != "..."]))
    return commands


def test_the_readme_python_example_prints_what_it_says(capsys):
    (code,) = [body for language, body in README_BLOCKS if language == "python"]
    exec(code, {})
    assert capsys.readouterr().out == "108*k2^3\n4\n"


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv, shown", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_each_readme_command_prints_the_lines_it_shows(capsys, argv, shown):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = iter(out.splitlines())
    # each shown line appears in stdout, after the one before it
    assert [text for text in shown if text not in lines] == []
