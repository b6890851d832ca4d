import json
import random
import re
import sys
from fractions import Fraction

import pytest

from lucaskit import cli
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


def _wrong_formula(params, n, table=None):
    return Poly([1, 1])


def _raising_formula(params, n, table=None):
    raise ZeroDivisionError("division by zero")


@pytest.mark.parametrize("formula", [_wrong_formula, _raising_formula])
def test_internal_inconsistency_exits_3(monkeypatch, capsys, formula):
    monkeypatch.setattr("lucaskit.cli.phi_coeff_formula", formula)
    code, out, err = run(capsys, "phi", "-p", "1", "-q", "-1", "-n", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_seq_past_int_str_limit_exits_2(capsys):
    # u_2200 at p=100, q=1 has about 4400 digits, past Python's default limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "seq", "-p", "100", "-q", "1", "-n", "2200")
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "4300 digits" in err and "PYTHONINTMAXSTRDIGITS" in err


def _other_value_error(*args):
    raise ValueError("not a digit limit")


def test_other_value_errors_are_not_mapped(monkeypatch, capsys):
    monkeypatch.setattr("lucaskit.cli.SequenceTable", _other_value_error)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["seq", "-p", "1", "-q", "-1", "-n", "3"])


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

    maybe = tmp_path / "maybe.cfg"
    maybe.write_text("factor = maybe\n")
    argv = ["phi", "-p", "1", "-q", "-1", "-n", "2", "--config", str(maybe)]
    assert run(capsys, *argv) == (2, "", "error: factor: cannot parse 'maybe' as a boolean\n")

    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"p=1\xff\n")
    code, out, err = run(capsys, "seq", "--config", str(not_utf8), "-q", "1", "-n", "2")
    assert code == 2 and out == "" and "cannot read config file" in err


def test_negative_step_is_a_value(capsys):
    # "-1/2" is no negative number to argparse, so --step must glue it like -p does
    assert run(capsys, "verify", "--step", "-1/2") == (2, "", "error: step must be positive\n")


def test_negative_values_glue_only_onto_the_subcommands_own_flags(capsys):
    # gauss has no -p and seq no --p-range: argparse must name the tokens as typed
    code, out, err = run(capsys, "gauss", "-p", "-1", "-m", "2", "-k", "1")
    assert (code, out) == (2, "") and err.endswith("error: unrecognized arguments: -p -1\n")
    code, out, err = run(capsys, "seq", "-p", "1", "-q", "1", "-n", "1", "--p-range", "-1:1")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --p-range -1:1\n")


# Each (subcommand, flag, value) is set once by the flag and once by a config file
# line "<flag without dashes> = <value>"; a switch's flag takes no value.
_CONFIG_BASE = {
    "seq": ["-p", "1", "-q", "-1", "-n", "3"],
    "phi": ["-p", "1", "-q", "-1", "-n", "4"],
    "binom": ["-p", "1", "-q", "-1", "-r", "5", "-k", "2"],
    "gauss": ["-m", "5", "-k", "2"],
    "verify": ["--n-max", "4", "--a-max", "2", "--identities", "prop34,eq25_zeitlin_paper_sign"],
}
_SWITCHES = ("--factor", "--cyclotomic", "--strict-diagnostics", "--timestamps")
_CONFIG_SETTINGS = [
    ("seq", "-p", "1/2"), ("seq", "-p", "x"), ("seq", "-q", "-1/3"), ("seq", "-n", "5"),
    ("seq", "--format", "csv"), ("seq", "--format", " csv"), ("seq", "--format", "xml"),
    ("seq", "--timestamps", "yes"),
    ("phi", "-p", "-2"), ("phi", "-q", "3"), ("phi", "-n", "6"), ("phi", "-n", "-1"),
    ("phi", "--factor", "on"), ("phi", "--format", "plain"), ("phi", "--timestamps", "YES"),
    ("binom", "-p", "2"), ("binom", "-q", "-3"), ("binom", "-r", "6"), ("binom", "-k", "3"),
    ("binom", "-k", "9"), ("binom", "--format", "csv"), ("binom", "--timestamps", "1"),
    ("gauss", "-m", "7"), ("gauss", "-k", "3"), ("gauss", "--cyclotomic", "1"),
    ("gauss", "--format", "csv"), ("gauss", "--timestamps", "on"),
    ("verify", "--p-range", "-1:1"), ("verify", "--p-range", "2:1"),
    ("verify", "--q-range", "-2:-1"), ("verify", "--n-max", "6"), ("verify", "--n-max", "0"),
    ("verify", "--a-max", "3"),
    ("verify", "--step", "1/2"), ("verify", "--step", "-1/2"), ("verify", "--identities", "all"),
    ("verify", "--identities", ","), ("verify", "--identities", "nosuch"),
    ("verify", "--strict-diagnostics", "yes"), ("verify", "--format", "csv"),
    ("verify", "--timestamps", "true"),
]


def _without(argv: list[str], flag: str) -> list[str]:
    if flag not in argv:
        return argv
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def _unstamped(result):
    code, out, err = result
    return code, re.sub(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", "<stamp>", out), err


def test_config_settings_cover_every_flag():
    for name, command in cli._COMMANDS.items():
        flags = {opt.flag for opt in command.options} | {"--format", "--timestamps"}
        assert flags == {flag for cmd, flag, _ in _CONFIG_SETTINGS if cmd == name}, name


@pytest.mark.parametrize("command,flag,value", _CONFIG_SETTINGS)
def test_config_line_equals_flag(tmp_path, capsys, command, flag, value):
    argv = [command, *_without(_CONFIG_BASE[command], flag)]
    if flag != "--format":
        argv += ["--format", "json"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag.lstrip('-')} = {value}\n")
    by_flag = run(capsys, *argv, flag, *([] if flag in _SWITCHES else [value]))
    by_config = run(capsys, *argv, "--config", str(cfg))
    assert _unstamped(by_flag) == _unstamped(by_config)


def test_usage_errors_from_argparse(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "seq" in out and "verify" in out


_MALFORMED = ("1.5", "1/0", "x", "-", "")
_RATIONALS = ("0", "1", "-1", "2", "-3", "1/2", "-2/3", "3/2")


def _random_argv(rng: random.Random) -> list[str]:
    """One argv over every flag of one subcommand, with small values and some malformed ones."""
    step = Fraction(1, rng.randint(1, 3))

    def window() -> str:  # at most two grid values
        lo = Fraction(rng.choice(_RATIONALS))
        return f"{lo}:{lo + step * rng.randint(0, 1)}"

    def upto(n: int) -> str:
        return str(rng.randint(0, n))

    def ids() -> str:
        return rng.choice(["all", "nosuch", ",".join(rng.sample(sorted(cli.REGISTRY), 2))])

    def rational() -> str:
        return rng.choice(_RATIONALS)

    pq = {"-p": rational, "-q": rational}
    flags = {
        "seq": {**pq, "-n": lambda: upto(30)},
        "phi": {**pq, "-n": lambda: upto(30), "--factor": None},
        "binom": {**pq, "-r": lambda: upto(30), "-k": lambda: upto(30)},
        "gauss": {"-m": lambda: upto(30), "-k": lambda: upto(30), "--cyclotomic": None},
        "verify": {
            "--p-range": window, "--q-range": window, "--step": lambda: str(step),
            "--n-max": lambda: upto(12), "--a-max": lambda: upto(12),
            "--identities": ids, "--strict-diagnostics": None,
        },
    }
    command = rng.choice(sorted(flags))
    common = {"--format": lambda: rng.choice(["plain", "json", "csv"]), "--timestamps": None}
    argv = [command]
    for flag, value in {**flags[command], **common}.items():
        # --n-max defaults to 50, which is no small sweep
        if flag != "--n-max" and rng.random() < 0.15:
            continue
        argv.append(flag)
        if value is not None:
            argv.append(rng.choice(_MALFORMED) if rng.random() < 0.08 else value())
    return argv


def test_random_small_argv_never_escape_main(capsys):
    rng = random.Random(20131)
    for _ in range(400):
        argv = _random_argv(rng)
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
