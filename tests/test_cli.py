import csv
import json
import math
import sys
from fractions import Fraction

import pytest

from agflab.cli import main, parse_complex_literal, parse_scalar
from agflab.holonomic import eval_sequence, mirror_e


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_scalar():
    assert parse_scalar("1/2") == Fraction(1, 2)
    assert parse_scalar("-1") == Fraction(-1)
    assert parse_scalar("2.5") == Fraction(5, 2)
    assert parse_scalar("0.7+1.1i") == complex(0.7, 1.1)


def test_parse_complex_literal():
    assert parse_complex_literal("1+2i") == complex(1, 2)
    assert parse_complex_literal("1 - 2 i") == complex(1, -2)
    assert parse_complex_literal("3") == complex(3, 0)
    assert parse_complex_literal("2i") == complex(0, 2)
    with pytest.raises(ValueError):
        parse_complex_literal("not a number")


def test_seq_e_exact_rows(capsys):
    code, out, _ = run_cli(capsys, ["seq", "e", "0", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[-1].split("\t") == ["5", "11/6"]


def test_seq_pi_exact_rows(capsys):
    code, out, _ = run_cli(capsys, ["seq", "pi", "0", "5"])
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("3/2")


def test_seq_n_max_flag_form(capsys):
    code, out, _ = run_cli(capsys, ["seq", "e", "0", "--n-max", "5"])
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("11/6")
    code, _, err = run_cli(capsys, ["seq", "e", "0"])
    assert code == 2 and "n_max" in err


def test_cli_config_invariants():
    from agflab.cli import CliConfig

    with pytest.raises(ValueError):
        CliConfig(n_max=5)
    with pytest.raises(ValueError):
        CliConfig(grid=(-1, 1, -1, 1, 0))


def test_seq_pole_exit(capsys):
    code, out, err = run_cli(capsys, ["seq", "e", "-1", "20"])
    assert code == 1
    assert "n=1" in err


def test_seq_from_file(tmp_path, capsys):
    path = tmp_path / "rec.txt"
    path.write_text(
        "coeff2: n+z\ncoeff1: -(n+z)\ncoeff0: -1\ninit: n0=1; 0, 1\n"
    )
    code, out, _ = run_cli(capsys, ["seq", str(path), "0", "5"])
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("11/6")


def test_seq_file_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("coeff1: n+\ninit: n0=1; 1\n")
    code, _, err = run_cli(capsys, ["seq", str(path), "0", "5"])
    assert code == 2
    assert "line 1" in err and "column" in err


def test_seq_json_format(capsys):
    code, out, _ = run_cli(capsys, ["seq", "e", "0", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][-1] == {"n": 4, "value": "3/2"}


def test_agf_values(capsys):
    code, out, _ = run_cli(capsys, ["agf", "f", "0"])
    assert code == 0
    assert abs(float(out.strip()) - 0.36787944117144) < 1e-12
    code, out, _ = run_cli(capsys, ["agf", "g", "1"])
    assert code == 0
    assert abs(float(out.strip()) - (math.pi - 2) / math.sqrt(2 * math.pi)) < 1e-12


def test_seq_exact_rows_longer_than_int_str_limit(capsys):
    code, out, _ = run_cli(capsys, ["seq", "e", "1", "2000"])
    assert code == 0
    n, value = out.rstrip("\n").rsplit("\n", 1)[-1].split("\t")
    # the expected text comes from str(), with Python's cap on int-to-str
    # conversion (3.11+) lifted for the duration
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        want = str(eval_sequence(mirror_e(1), n_max=2000)[-1].value)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert len(want) > 4300
    assert (n, value) == ("2000", want)


def test_agf_overflow_exits_1_with_message(capsys):
    code, out, err = run_cli(capsys, ["agf", "g", "0+800i"])
    assert code == 1
    assert out == ""
    assert "OverflowError" in err


def test_agf_pole_names_pole_set(capsys):
    code, out, err = run_cli(capsys, ["agf", "f", "-2"])
    assert code == 1
    assert "{-2, -3, -4, ...}" in err


def test_agf_extended_digits(capsys):
    code, out, _ = run_cli(capsys, ["agf", "f", "0", "--digits", "30"])
    assert code == 0
    import mpmath as mp

    with mp.workdps(40):
        want = mp.nstr(1 / mp.e, 25)
    assert out.strip()[:20] == want[:20]


def test_limit_e(capsys):
    code, out, _ = run_cli(capsys, ["limit", "e", "0"])
    assert code == 0
    value = float(out.split("±")[0])
    assert abs(value - 0.3678794412) < 1e-8


def test_limit_gamma(capsys):
    code, out, _ = run_cli(capsys, ["limit", "gamma", "1/2"])
    assert code == 0
    value = float(out.split("±")[0])
    assert abs(value - 1.7724539) < 1e-6


def test_limit_prints_double_precision_whatever_digits(capsys):
    # the estimate is a complex double: no more digits than it carries
    _, plain, _ = run_cli(capsys, ["limit", "e", "1"])
    code, wide, _ = run_cli(capsys, ["limit", "e", "1", "--digits", "30"])
    assert code == 0 and wide == plain
    value = wide.split(" ± ")[0]
    assert len(value.lstrip("0.")) <= 15
    assert abs(float(value) - (1 - 2 / math.e)) < 1e-15


def test_digits_16_is_extended_everywhere(capsys):
    code, out, err = run_cli(capsys, ["agf", "f", "1", "--digits", "16"])
    assert code == 0, err
    assert out.strip() == "0.2642411176571154"  # 1 - 2/e to 16 digits
    code, out, err = run_cli(capsys, ["seq", "e", "1/3", "12", "--digits", "16"])
    assert code == 0, err
    rows = out.strip().splitlines()
    want = eval_sequence(mirror_e(Fraction(1, 3)), n_max=12)[-1].value
    assert rows[-1].split("\t")[0] == "12"
    assert abs(Fraction(rows[-1].split("\t")[1]) - want) < Fraction(1, 10**14)


def test_verify_slope_and_exit_contract(capsys):
    code, out, _ = run_cli(capsys, ["verify", "slope"])
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert {c["check"] for c in rep["checks"]} == {
        "slope_integer_rational",
        "slope_non_integer_rejected",
    }


def test_verify_deterministic_at_fixed_seed(capsys):
    code1, out1, _ = run_cli(capsys, ["verify", "slope", "--seed", "7"])
    code2, out2, _ = run_cli(capsys, ["verify", "slope", "--seed", "7"])
    assert (code1, out1) == (code2, out2)


def test_verify_duality_text_format(capsys):
    code, out, _ = run_cli(capsys, ["verify", "duality", "--format", "text"])
    assert code == 0
    assert "PASS duality_e" in out
    assert "PASS suite duality" in out


def test_verify_growth(capsys):
    code, out, _ = run_cli(capsys, ["verify", "growth"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_table_duality_e_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "duality_e.csv"
    code, _, _ = run_cli(
        capsys, ["table", "duality-e", "--m-max", "10", "--out", str(out_path)]
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert all(float(r["residual"]) < 1e-9 for r in rows)
    # re-read and re-validate: the exact forms regenerate identically
    from agflab.exact import duality_form_e

    for r in rows:
        form = duality_form_e(int(r["m"]))
        assert int(r["a"]) == form.a and int(r["b"]) == form.b
        regenerated = form.a - math.e * form.b
        assert abs(float(r["form_value"]) - regenerated) < 1e-12 * max(
            1.0, abs(regenerated)
        )


def test_table_duality_pi_exact_columns(tmp_path, capsys):
    out_path = tmp_path / "duality_pi.csv"
    code, _, _ = run_cli(
        capsys, ["table", "duality-pi", "--m-max", "10", "--out", str(out_path)]
    )
    assert code == 0
    from agflab.exact import duality_form_pi

    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        form = duality_form_pi(int(r["m"]))
        num, den = r["q"].split("/")
        assert Fraction(int(num), int(den)) == form.q
        assert float(r["residual"]) < 1e-9


def test_table_agf_grid_pole_cells(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys,
        ["table", "agf-grid", "--grid=-1.5,2,-1,1,0.5", "--out", str(out_path)],
    )
    assert code == 0
    with open(out_path) as fh:
        content = fh.read()
    assert "nan" not in content.lower()
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    pole_rows = [r for r in rows if r["g_re"] == "pole"]
    assert len(pole_rows) == 1
    assert pole_rows[0]["re"] == "-1" and pole_rows[0]["im"] == "0"
    # f is finite at z = -1
    assert pole_rows[0]["f_re"] != "pole"


def test_verify_all_smoke(capsys):
    code, out, _ = run_cli(capsys, ["verify", "all"])
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert len(rep["checks"]) > 30


def test_verify_nonzero_exit_names_first_failure(capsys, monkeypatch):
    import agflab.cli as cli

    def broken_suite(seed):
        return [
            {"check": "always_green", "params": {}, "pass": True,
             "max_deviation": 0.0, "details": []},
            {"check": "forced_red", "params": {}, "pass": False,
             "max_deviation": 1.0, "details": []},
        ]

    monkeypatch.setitem(cli.SUITES, "growth", broken_suite)
    code, out, err = run_cli(capsys, ["verify", "growth"])
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "forced_red" in err


def test_table_unwritable_path(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "out.csv"
    code, _, err = run_cli(capsys, ["table", "duality-e", "--out", str(target)])
    assert code == 2
    assert "error" in err.lower()
