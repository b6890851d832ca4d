import json

import pytest

from lucaskit.cli import main
from lucaskit.poly import Poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_plain(capsys):
    code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n u w"
    assert "5 5 11" in lines and "6 8 18" in lines


def test_seq_single_row(capsys):
    code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "0")
    assert code == 0
    assert out.splitlines()[1:] == ["0 0 2"]


def test_seq_rational_params(capsys):
    code, out, _ = run(capsys, "seq", "-p", "1/2", "-q", "-1/3", "-n", "2")
    assert code == 0
    assert out.splitlines()[2] == "1 1 1/2"


def test_seq_parse_error(capsys):
    code, _, err = run(capsys, "seq", "-p", "x", "-q", "1", "-n", "3")
    assert code == 2
    assert "cannot parse" in err


def test_seq_rejects_floats(capsys):
    for bad in ("1.5", "1e3"):
        code, _, err = run(capsys, "seq", "-p", bad, "-q", "1", "-n", "3")
        assert code == 2
        assert "not exact" in err


def test_seq_missing_option(capsys):
    code, _, err = run(capsys, "seq", "-p", "1", "-n", "3")
    assert code == 2
    assert "-q" in err


def test_seq_json_schema(capsys):
    code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "params", "records"}
    assert doc["command"] == "seq"
    assert doc["params"] == {"p": "1", "q": "-1", "n_max": 3}
    assert doc["records"][3] == {"n": 3, "u": "2", "w": "4"}


def test_seq_csv(capsys):
    code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,u,w", "0,0,2", "1,1,1", "2,1,3"]


def test_bad_format(capsys):
    code, _, err = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "2", "--format", "xml")
    assert code == 2
    assert "--format" in err


def test_phi_plain(capsys):
    code, out, _ = run(capsys, "phi", "-p", "1", "-q", "-1", "-n", "2")
    assert code == 0
    assert out.splitlines() == ["coefficients: 1 -2 -2 1"]

    code, out, _ = run(capsys, "phi", "-p", "1", "-q", "-1", "-n", "1")
    assert out.splitlines() == ["coefficients: -1 -1 1"]


def test_phi_factor(capsys):
    code, out, _ = run(capsys, "phi", "-p", "1", "-q", "-1", "-n", "4", "--factor")
    assert code == 0
    lines = out.splitlines()
    assert "quadratic_factor: 1 -7 1" in lines
    assert "quadratic_divides: true" in lines
    assert "factorization_sign: -1" in lines


def test_phi_factor_json(capsys):
    code, out, _ = run(
        capsys, "phi", "-p", "1", "-q", "-1", "-n", "2", "--factor", "--format", "json"
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["coefficients"] == ["1", "-2", "-2", "1"]
    assert record["quadratic_factor"] == ["1", "-3", "1"]
    assert record["quadratic_divides"] is True
    assert record["factorization"]["sign"] == -1


def test_phi_large_prime_discriminant(capsys):
    # p^2 - 12 is past the trial-division bound; building the roots must not factor it
    code, out, err = run(capsys, "phi", "-p", "100000000000000000039", "-q", "3", "-n", "1")
    assert (code, out, err) == (0, "coefficients: 3 -100000000000000000039 1\n", "")


def _wrong_formula(params, n):
    return Poly([1, 1])


def _raising_formula(params, n):
    raise ZeroDivisionError("division by zero")


@pytest.mark.parametrize("formula", [_wrong_formula, _raising_formula])
def test_internal_inconsistency_exits_3(monkeypatch, capsys, formula):
    monkeypatch.setattr("lucaskit.cli.phi_coeff_formula", formula)
    code, out, err = run(capsys, "phi", "-p", "1", "-q", "-1", "-n", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_binom(capsys):
    code, out, _ = run(capsys, "binom", "-p", "1", "-q", "-1", "-r", "5", "-k", "2")
    assert code == 0
    assert out == "15\n"


def test_binom_total_at_zero_terms(capsys):
    code, out, _ = run(capsys, "binom", "-p", "1", "-q", "1", "-r", "6", "-k", "3")
    assert code == 0
    assert out == "-2\n"


def test_binom_range_error(capsys):
    code, _, err = run(capsys, "binom", "-p", "1", "-q", "-1", "-r", "3", "-k", "5")
    assert code == 2
    assert "k must lie" in err


def test_gauss(capsys):
    code, out, _ = run(capsys, "gauss", "-m", "4", "-k", "2")
    assert code == 0
    assert out.splitlines() == ["coefficients: 1 1 2 1 1"]

    code, out, _ = run(capsys, "gauss", "-m", "4", "-k", "2", "--cyclotomic")
    assert out.splitlines()[1] == "cyclotomic_factors: 3:1 4:1"


def test_gauss_csv(capsys):
    code, out, _ = run(capsys, "gauss", "-m", "2", "-k", "1", "--cyclotomic", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "kind,index,value",
        "coefficient,0,1",
        "coefficient,1,1",
        "cyclotomic_exponent,2,1",
    ]


def test_verify_pass_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "--p-range", "-3:3", "--q-range", "-3:3",
        "--n-max", "20", "--identities", "prop34",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 49
    assert all(" pass " in line for line in lines)


def test_verify_negative_flag_values_merge(capsys):
    code, out, _ = run(capsys, "verify", "--p-range", "-1:1", "--q-range", "-2:-1",
                       "--n-max", "5", "--identities", "prop34")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_verify_diagnostic_exit_codes(capsys):
    argv = ["verify", "--identities", "eq25_zeitlin_paper_sign", "--n-max", "5", "--a-max", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "fail" in out and "counterexample" in out

    code, _, _ = run(capsys, *argv, "--strict-diagnostics")
    assert code == 1


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identities", "nosuch")
    assert code == 2
    assert "unknown identity" in err


def test_verify_json_records(capsys):
    code, out, _ = run(
        capsys, "verify", "--identities", "eq24,eq22", "--n-max", "30", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["params"]["identities"] == ["eq22", "eq24"]
    assert [r["identity"] for r in doc["records"]] == ["eq22", "eq24"]
    assert all(r["status"] == "pass" for r in doc["records"])


def test_verify_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "--identities", "eq24", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == (
        "identity,p,q,n_min,n_max,a_max,status,checked,skipped,counterexample,note"
    )


def test_deterministic_output(capsys):
    argv = [
        "verify", "--p-range", "-2:2", "--q-range", "-2:2", "--n-max", "15",
        "--identities", "all", "--format", "json",
    ]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second

    argv = ["seq", "-p", "3", "-q", "1/2", "-n", "9", "--format", "csv"]
    assert run(capsys, *argv) == run(capsys, *argv)


def test_timestamps_outside_data(capsys):
    base = ["seq", "-p", "1", "-q", "-1", "-n", "3"]
    _, plain, _ = run(capsys, *base)
    _, stamped, _ = run(capsys, *base, "--timestamps")
    lines = stamped.splitlines()
    assert lines[0].startswith("# generated_at: ")
    assert "\n".join(lines[1:]) + "\n" == plain

    _, out, _ = run(capsys, *base, "--format", "json", "--timestamps")
    doc = json.loads(out)
    assert set(doc) == {"command", "params", "records", "meta"}
    assert "generated_at" in doc["meta"]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# grid\np = 1\nq = -1\nn = 4\nformat = csv\n")
    code, out, _ = run(capsys, "seq", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "n,u,w"
    assert len(out.splitlines()) == 6

    # explicit flags win over the config file
    code, out, _ = run(capsys, "seq", "--config", str(cfg), "-n", "1", "--format", "plain")
    assert code == 0
    assert out.splitlines() == ["n u w", "0 0 2", "1 1 1"]


def test_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, err = run(capsys, "seq", "--config", str(missing), "-p", "1", "-q", "1", "-n", "1")
    assert code == 2 and "config" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("p 1\n")
    code, _, err = run(capsys, "seq", "--config", str(bad), "-q", "1", "-n", "1")
    assert code == 2 and "key=value" in err

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("p=1\nq=1\nn=1\nwhat=ever\n")
    code, _, err = run(capsys, "seq", "--config", str(unknown))
    assert code == 2 and "unknown config keys" in err


def test_usage_errors_from_argparse(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "seq" in out and "verify" in out
