"""Exit-code contract and deterministic output of the command surface."""

import json

import pytest

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


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("simulate", "--potential", "U", "--k2", "1", "--start", "0,1,0.5,0.5", "--t-end", "0.01"),
])
def test_unwritable_out_is_an_argument_error(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--out", path])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert path in err and err.count("\n") == 1


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
    ("--y-min", "nan"),
    ("--k2", "nan"),
    ("--k3", "-inf"),
    ("--h", "0.3", "--t-end", "1"),
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


def test_simulate_rejects_non_potential():
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--potential", "K2_3", "--start", "0,1,0,0"])
    assert exc_info.value.code == 2


def test_unknown_subcommand_is_an_argument_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2
