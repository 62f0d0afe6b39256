import ast
import csv
import dataclasses
import importlib
import inspect
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.ctx_mp import MPContext

import agflab
from agflab import agf, certify, cli
from agflab.agf import (
    f_eval,
    f_pole_distance,
    f_spec,
    g_eval,
    g_pole_distance,
    g_spec,
    grid_points,
)
from agflab.cli import build_parser, main
from agflab.complexfn import DOUBLE, PoleError, format_cnum
from agflab.holonomic import (
    PRecurrence,
    gamma_recurrence,
    iter_sequence,
    mirror_e,
    parse_scalar,
)


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_scalar():
    assert parse_scalar("1/2") == Fraction(1, 2)
    assert parse_scalar("-1") == Fraction(-1)
    assert parse_scalar("2.5") == Fraction(5, 2)
    assert parse_scalar("0.7") == Fraction(7, 10)  # exact, not the double
    assert parse_scalar("1e400") == Fraction(10**400)
    assert parse_scalar("0.7+1.1i") == complex(0.7, 1.1)


def test_parse_complex_literal():
    # a literal that is not rational reads as a complex
    for text, want in (("1+2i", complex(1, 2)), ("1 - 2 i", complex(1, -2)),
                       ("2i", complex(0, 2)), ("-1.5+0.7i", complex(-1.5, 0.7))):
        value = parse_scalar(text)
        assert value == want and type(value) is complex
    assert parse_scalar("3") == complex(3, 0)
    for text in ("not a number", "", "1/0", "1/3+2i"):
        with pytest.raises(ValueError):
            parse_scalar(text)


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
    # N_MAX is a positional only: --n-max is an unknown flag, and a
    # missing N_MAX exits 2
    for argv, message in ((["seq", "e", "0", "--n-max", "5"], "--n-max"),
                          (["seq", "e", "0"], "n_max")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "") and message in err


def _untimed(out: str) -> str:
    """JSON output without timing_s, the one field that varies between runs."""
    return re.sub(r'\n *"timing_s": [^\n]*', "", out)


@pytest.mark.parametrize("argv, dashed", [
    ("seq e -5/2 4", "seq e -- -5/2 4"),
    ("seq gamma -.5 4 --format json", "seq gamma --format json -- -.5 4"),
    ("limit gamma -1/2", "limit gamma -- -1/2"),
    ("limit pi -0.25+1i --format json", "limit pi --format json -- -0.25+1i"),
    ("agf f -1.5+0.7i", "agf f -- -1.5+0.7i"),
    ("agf g -0.5-2i", "agf g -- -0.5-2i"),
    ("agf g -0.5 --digits 30", "agf g --digits 30 -- -0.5"),
])
def test_negative_z_needs_no_double_dash(capsys, argv, dashed):
    code, out, err = run_cli(capsys, argv.split())
    assert (code, err) == (0, "")
    assert _untimed(out) == _untimed(run_cli(capsys, dashed.split())[1])


def test_main_keeps_no_state_between_calls(capsys, monkeypatch):
    # main builds its parser once; the flags of one call must not reach
    # the next, and a command replaced since (a tracer's wrapper) is called
    code, out, _ = run_cli(capsys, ["seq", "e", "1/2", "4", "--format", "json"])
    assert code == 0 and json.loads(out)["rows"][-1]["n"] == 4
    code, out, _ = run_cli(capsys, ["seq", "e", "1/2", "4"])
    assert code == 0
    assert out == "1\t0\n2\t1\n3\t1\n4\t7/5\n"
    plain = ["seq", "e", "1/2", "4"]
    reused, fresh = (vars(p.parse_args(plain)) for p in (cli._parser(), build_parser()))
    del reused["func"], fresh["func"]  # one closure per parser
    assert reused == fresh
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "cmd_seq", lambda args: 7)
    assert main(plain) == 7


def test_grid_zero_step_exits_2(capsys):
    # every rejected grid ends in argparse's usage error, not in a
    # traceback's exit 1 or an empty table
    for grid, message in [("-1,1,-1,1,0", "grid step must be positive"),
                          ("0,inf,0,1,0.5", "must be finite"),
                          ("nan,1,0,1,0.5", "must be finite"),
                          ("0,1,0,1,inf", "must be finite"),
                          ("5,1,0,1,0.5", "max must not be below its min"),
                          # refused before grid_points builds the list
                          ("0,1e9,0,1e9,1", "grid has 1000000002000000001 points"),
                          ("0,1000,0,999,1", "grid has 1001000 points"),
                          ("0,1e9,0,1e9,1e-300", "grid has inf points"),
                          ("-1e308,1e308,0,1,1", "grid has inf points")]:
        with pytest.raises(SystemExit) as exc:
            main(["table", "agf-grid", f"--grid={grid}"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert cli._grid_spec("0,999,0,999,1") == (0, 999, 0, 999, 1)  # 10^6 points


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--digits", "30"],
    ["table", "agf-grid", "--digits", "30"],
    ["agf", "f", "1", "--format", "json"],
    ["limit", "e", "0", "--format", "xml"],
])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["agf", "f", "1", "--digits", "0"],
    ["agf", "f", "1", "--digits", "-3"],
    ["seq", "pi", "1+2i", "5", "--digits", "0"],
    ["limit", "e", "1", "--digits", "0"],
])
def test_digits_below_1_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_readme_cli_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+) [^|]*(?:\\\|[^|]*)*\| (.*) \|$", readme, re.M)
    documented = {
        name: (set(re.findall(r"--[\w-]+", flags)),
               re.findall(r"--format \{([\w,]+)\}", flags))
        for name, flags in rows
    }
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    defined = {}
    for name, sub in commands.items():
        options = [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
        flags = {s for a in options for s in a.option_strings}
        formats = [",".join(a.choices) for a in options if a.dest == "format"]
        defined[name] = (flags, formats)
    assert documented == defined


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_block_runs_as_its_comments_say(tmp_path, monkeypatch, capsys):
    # each line of the README's CLI block, run in a scratch directory:
    # the exit code its comment names (0 unless 'exit N'), and every value
    # its comment shows after a '→' somewhere in the output
    readme = README.read_text()
    lines = re.search(r"^## CLI\n\n```\n(.*?)```", readme, re.M | re.S)[1].splitlines()
    recurrence = re.search(r"^```\n(coeff.*?)```", readme, re.M | re.S)[1]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_recurrence.txt").write_text(recurrence)
    assert any("my_recurrence.txt" in line for line in lines)
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        code, out, err = run_cli(capsys, argv)
        named = re.search(r"\bexit (\d)", comment)
        assert (program, code) == ("agf-lab", int(named[1]) if named else 0), (line, err)
        shown = [v.strip() for v in comment.partition("→")[2].split(", ")]
        assert [v for v in shown if v not in ("", "...") and v not in out] == [], line


class _Recorder:
    """Parsed arguments that note each attribute a command reads."""

    def __init__(self, args):
        self._args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


def test_every_flag_of_a_command_is_read(capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    cheap = {
        "seq": [["seq", "e", "1/2", "4"]],
        "limit": [["limit", "e", "1", "--n-base", "64", "--depth", "3"]],
        "agf": [["agf", "f", "1"]],
        "verify": [["verify", "slope"]],
        "table": [["table", "duality-e", "--m-max", "2"],
                  ["table", "agf-grid", "--grid=0,0.5,0,0.5,0.5"]],
    }
    assert set(cheap) == set(commands)
    for name, argvs in cheap.items():
        read = set()
        for argv in argvs:
            args = _Recorder(parser.parse_args(argv))
            assert args.func(args) == 0
            read |= args.read
        defined = {a.dest for a in commands[name]._actions} - {"help"}
        assert defined <= read, (name, defined - read)
    capsys.readouterr()


def test_seq_rounds_the_fixed_point_value_once(capsys):
    # row 150 is 3.6198783376537051196...-0.7573800379137684...i; the
    # nearest double of its real part would print 3.6198783376537
    code, out, _ = run_cli(capsys, ["seq", "pi", "2.5+1.25i", "300"])
    n, value = out.splitlines()[149].split("\t")
    assert (code, n) == (0, "150")
    assert value.split("-")[0] == "3.61987833765371"


def test_cli_import_loads_no_third_party_package_but_mpmath():
    # mpmath is the only runtime dependency: importing the CLI, as every
    # agf-lab process does, may add the standard library, agflab, mpmath
    # and mpmath's optional gmpy2 backend to sys.modules, nothing else
    src = str(Path(agflab.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import agflab.cli; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before}"
            " - sys.stdlib_module_names)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert {"agflab", "mpmath"} <= set(out.split()) <= {
        "agflab", "mpmath", "gmpy2"}, out


def test_package_import_loads_no_layer_and_binds_only_the_version():
    # the API lives in the layers: the package root is no second list of it
    src = str(Path(agflab.__file__).resolve().parents[1])
    code = ("import json, sys, agflab; print(json.dumps(["
            "sorted(m for m in sys.modules if m.startswith('agflab.')), "
            "sorted(n for n in vars(agflab) if not n.startswith('__')), "
            "'__all__' in vars(agflab), agflab.__version__]))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [[], [], False, "0.1.0"]


@pytest.mark.parametrize("name", ["agflab", *(f"agflab.{layer}" for layer in (
    "agf", "certify", "complexfn", "connection", "exact", "holonomic", "worlds"))])
def test_every_exported_name_exists(name):
    # the benchmark's tracer getattr's each name of a layer's __all__
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_public_generators_take_only_iteration_arguments():
    # the benchmark's tracer calls iteration_mode(**arguments) on every
    # public generator function of a layer: any other parameter raises
    generators = {}
    for layer in ("agf", "certify", "cli", "complexfn", "connection", "exact",
                  "holonomic"):
        module = importlib.import_module(f"agflab.{layer}")
        public = getattr(module, "__all__", None) or [
            n for n in vars(module) if not n.startswith("_")]
        for name in public:
            fn = getattr(module, name)
            if inspect.isgeneratorfunction(fn) and fn.__module__ == module.__name__:
                generators[f"{layer}.{name}"] = set(inspect.signature(fn).parameters)
    assert {"holonomic.iter_sequence"} <= set(generators)
    assert {name: params for name, params in generators.items()
            if not params <= {"rec", "z", "n_max", "digits"}} == {}


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_benchmark_tracer_binds_names_the_library_has():
    # the tracer binds by name, and a rename would crash only traced runs:
    # read its source, without importing it, for the names it binds
    from agflab import connection, holonomic

    tree = ast.parse(TRACER.read_text())
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}
    # iteration_mode(**arguments of iter_sequence)
    mode = {a.arg for a in defs["iteration_mode"].args.args}
    assert set(inspect.signature(holonomic.iter_sequence).parameters) <= mode

    def is_rec(node):
        return (isinstance(node, ast.Name) and node.id == "rec"
                or isinstance(node, ast.Subscript)
                and getattr(node.slice, "value", None) == "rec")

    # the fields it reads off a recurrence, param among them
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and is_rec(node.value)}
    assert "param" in read
    assert read <= {field.name for field in dataclasses.fields(holonomic.PRecurrence)}
    # the arguments of a traced estimate it reads, and the name it is under
    keys = {node.slice.value for node in ast.walk(defs["_estimate_honest"])
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)}
    params = set(inspect.signature(connection.estimate_connection_constant).parameters)
    assert {"rec", "shell", "z"} <= keys <= params
    (estimate,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "ESTIMATE" for t in node.targets)]
    assert estimate == "connection.estimate_connection_constant"
    assert cli.estimate_connection_constant is connection.estimate_connection_constant


SRC = Path(agflab.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# public functions and classes that no command reaches, each with the
# reason it stays
KEPT = {
    "gamma_ratio_A": "the bit-exact reference of g's two-ratio form in the tests",
    "parse_agf_spec": "reads the AFE text format that AFE guessing will emit",
    "format_agf_spec": "writes the AFE text format, the inverse of parse_agf_spec",
    "GammaFactor": "a shell's Gamma factors, which derived shells will fill",
}


def _layers() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _exported(tree: ast.Module) -> set[str]:
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names ``tree`` reads as a Name, an Attribute or an import,
    outside the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_public_function_only_the_tests_call():
    # the public API is what the commands and the acceptance suite call
    layers = _layers()
    uses = {name: _uses(tree) for name, tree in layers.items()}
    accepted = _uses(ast.parse(ACCEPTANCE.read_text()))
    public, uncalled, stale = set(), [], []
    for name, tree in layers.items():
        elsewhere = accepted.union(*(u for n, u in uses.items() if n != name))
        exported = _exported(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in exported):
                public.add(node.name)
                called = node.name in elsewhere | _uses(tree, skip=node)
                if called and node.name in KEPT:
                    stale.append(f"{name}:{node.name}")
                elif not called and node.name not in KEPT:
                    uncalled.append(f"{name}:{node.name}")
    assert uncalled == []
    assert stale == []
    assert set(KEPT) <= public


def test_no_unused_import_in_the_library():
    unused = {}
    for name, tree in _layers().items():
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused[name] = sorted(bound - read - _exported(tree))
    assert {name: names for name, names in unused.items() if names} == {}


def test_only_complexfn_chooses_the_arithmetic_of_a_precision():
    # the formulas run over cfg.ctx, which PrecisionConfig resolves; the
    # others read is_extended for what a context does not hold: how an
    # mpmath value prints, 1F1's argument conversion, g's double-only
    # series and the engine seq steps in
    allowed = {"PrecisionConfig", "format_cnum", "hyp1f1", "g_eval", "cmd_seq"}
    readers = {getattr(node, "name", node.lineno)
               for tree in _layers().values() for node in tree.body
               if any(isinstance(n, ast.Attribute) and n.attr == "is_extended"
                      for n in ast.walk(node))}
    assert readers <= allowed


def test_seq_gamma_rows_are_the_exact_sequence(capsys):
    code, out, _ = run_cli(capsys, ["seq", "gamma", "1/3", "5"])
    want = list(iter_sequence(gamma_recurrence(Fraction(1, 3)), n_max=5))
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [(int(n), Fraction(value)) for n, value in rows] == want
    assert rows[:2] == [["1", "3"], ["2", "9/2"]]


def test_seq_complex_row_without_fixed_point_residue(capsys):
    # w_3 = 3!/((1+i)(2+i)(3+i)) = -0.6i exactly; the engine's floor
    # divisions left -4.97841222228891e-60 in the real part
    code, out, _ = run_cli(capsys, ["seq", "gamma", "1+i", "4"])
    assert code == 0 and out.split("\n")[2] == "3\t0-0.6i"


def test_agf_g_past_its_radius_exits_1(capsys):
    code, out, err = run_cli(capsys, ["agf", "g", "1e10+1e10i"])
    assert (code, out) == (1, "") and err.startswith("domain error: ")


def test_seq_pole_exit(capsys):
    code, out, err = run_cli(capsys, ["seq", "e", "-1", "20"])
    assert code == 1
    assert "n=1" in err


def test_seq_non_finite_z_exits_2(capsys):
    for n_max in ("5", "20000"):
        code, out, err = run_cli(capsys, ["seq", "e", "nan", n_max])
        assert (code, out) == (2, "")
        assert "cannot iterate from the value" in err


def test_agf_non_finite_z_exits_2(capsys):
    for which in ("f", "g"):
        for args in (["1e400"], ["nan"], ["1+nani"], ["1e400i", "--digits", "30"]):
            code, out, err = run_cli(capsys, ["agf", which, *args])
            assert (code, out) == (2, "") and err.startswith(
                "error: z is not finite"), args


def test_limit_past_the_largest_first_tableau_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["limit", "pi", "1/3", "--depth", "40"])
    assert (code, out) == (2, "") and "2^24" in err
    assert time.perf_counter() - start < 1



@pytest.mark.parametrize("argv, code, err", [
    # Gamma(-17.5+0.2i) = 1.4599e-15 + 9.525e-16i: an imaginary part
    # below 1e-13 is still a part
    (["limit", "gamma", "-17.5+0.2i"], 0, ""),
    # f(1e20) is about 1e-20, below the rounding floor 1.33e-17
    (["limit", "e", "1e20"], 1, "non-convergence: "),
    (["limit", "gamma", "1e400"], 2, "error: z is not finite"),
    (["limit", "e", "1e400i"], 2, "error: z is not finite"),
], ids=["gamma -17.5+0.2i", "e 1e20", "gamma 1e400", "e 1e400i"])
def test_limit_prints_a_value_within_its_error_or_refuses(capsys, argv, code, err):
    got, out, stderr = run_cli(capsys, argv)
    assert got == code and stderr.startswith(err), stderr
    if code:
        assert out == ""
        return
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40
    value, _, error = out.partition(" ± ")
    value, error = complex(parse_scalar(value)), float(error)
    want = ctx.gamma(ctx.mpc(-17.5, 0.2))
    assert value.imag != 0
    assert abs(value.real - want.real) <= error and abs(value.imag - want.imag) <= error


@pytest.mark.parametrize("world", ["e", "pi", "gamma"])
@pytest.mark.parametrize("z", [-314, -2500, -5000])
def test_limit_at_a_pole_past_the_ladder_exits_1_before_any_step(
        capsys, monkeypatch, world, z):
    # the e ladder settles at n = 128, long before its leading coefficient
    # n + z vanishes at n = -z; limit e -40, gamma -40 and e -5000.5 are
    # in the golden file
    import agflab.connection as connection

    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(connection, "iter_values_at", no_step)
    assert run_cli(capsys, ["limit", world, str(z)]) == (
        1, "", f"coefficient pole: coefficient pole at n={-z} (leading coefficient)\n")


# argv: (exit code, stdout, stderr), as full windows alone gave them
_FULL_WINDOW_BYTES = {
    # at |z| >> n the samples are about |z|/n times the value: a short
    # window there settles only once its newest sample is near its estimate
    "e 1e6": (0, "9.99997000010802e-07 ± 7.41e-18\n", ""),
    "e -5000.5": (0, "-0.000200100058038629 ± 1.08e-17\n", ""),
    "e 1e20": (1, "", "non-convergence: value below its rounding floor "
               "(error 7.39e-18 vs value 7.51e-19)\n"),
    # settles in a window of 8 samples, where one of 7 diverges (--depth 6)
    "gamma 6.598+33.67i": (0, "5.06340964670302e-14-2.65493021771452e-14i ± 8.02e-24\n",
                           ""),
    # only a full window can diverge
    "gamma 16.8+54.01i": (1, "", "non-convergence: extrapolation diagonal diverging "
                          "(deltas [4.966016370282409e-09, 2.5241038498769432e-09, "
                          "2.0513618161076637e-09, 3.257274460229302e-09, "
                          "8.96136975948965e-09, 4.9142220081446666e-08, "
                          "5.010798840056198e-07])\n"),
    "gamma 19.87-90.02i": (1, "", "non-convergence: extrapolation diagonal diverging "
                           "(deltas [3.48655468201012e-23, 8.474291805534576e-23, "
                           "5.541387822035088e-22, 2.4266201570438156e-20, "
                           "4.009779203654731e-17, 1.4844243553806204e-12, "
                           "2.2220186348573043e-08])\n"),
    "gamma 38.72-121.2i": (1, "", "non-convergence: extrapolation diagonal diverging "
                           "(deltas [0.09179243680722447, 0.7389072023885185, "
                           "27.468860369176742, 30971.006245168017, 1373496795.6328683, "
                           "90135637569363.8, 2.194042336843087e+16])\n"),
}


@pytest.mark.parametrize("argv", list(_FULL_WINDOW_BYTES))
def test_limit_keeps_the_bytes_of_full_windows(capsys, argv):
    assert run_cli(capsys, ["limit", *argv.split()]) == _FULL_WINDOW_BYTES[argv]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("z", ["170.9", "171", "171.5", "172", "-170.5", "-175.5",
                               "-177.5", "-180.5"])
def test_limit_gamma_at_the_ends_of_the_double_range(capsys, z):
    # Gamma(z) runs from 1.2e309 at 172 down to -1.2e-330 at -180.5: a
    # finite value whose ± covers its error against 40-digit mpmath, or
    # exit 1; in JSON, never NaN or Infinity
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40
    q = Fraction(z)
    want = ctx.gamma(ctx.mpf(q.numerator) / q.denominator)
    code, out, err = run_cli(capsys, ["limit", "gamma", z])
    json_code, json_out, _ = run_cli(capsys, ["limit", "gamma", z, "--format", "json"])
    assert json_code == code
    if code:
        assert (code, out, json_out) == (1, "", "") and err.startswith(
            "non-convergence: "), err
        return
    text, _, error = out.rstrip("\n").partition(" ± ")
    value, error = parse_scalar(text), float(error)
    assert math.isfinite(error)
    assert abs(ctx.mpf(value.numerator) / value.denominator - want) <= error
    record = json.loads(json_out, parse_constant=_reject_constant)
    assert record["value"] == text


def test_seq_rows_past_the_double_range_keep_15_digits(tmp_path, capsys):
    # at Z = 0.5i, (1+z)(2+z)...(n+z) passes 1.8e308 at n = 171; 1/n!
    # falls below the normal doubles at n = 171 and below 5e-324 at 178.
    # Each row is its 40-digit value to 15 significant digits
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40
    z = ctx.mpc(0, 0.5)
    cases = {"coeff1: 1\ncoeff0: -(n+1+z)\n": lambda n: ctx.rf(1 + z, n),
             "coeff1: n+1\ncoeff0: -1\n": lambda n: 1 / ctx.factorial(n)}
    digits = r"[\d.]+(?:e[+-]\d+)?"
    for i, (text, exact) in enumerate(cases.items()):
        path = tmp_path / f"rec{i}.txt"
        path.write_text(text + "init: n0=0; 1\n")
        code, out, _ = run_cli(capsys, ["seq", str(path), "0.5i", "200"])
        rows = [line.split("\t") for line in out.splitlines()]
        assert code == 0 and len(rows) == 201
        for n, value in rows:
            want = ctx.mpc(exact(int(n)))
            m = re.fullmatch(f"(-?{digits})(?:([+-]{digits})i)?", value)
            got = ctx.mpc(ctx.mpf(m[1]), ctx.mpf(m[2] or 0))
            for g, w in ((got.real, want.real), (got.imag, want.imag)):
                assert abs(g - w) <= 5e-15 * abs(w), (text, n, value)


def test_seq_from_file(tmp_path, capsys):
    path = tmp_path / "rec.txt"
    path.write_text(
        "coeff2: n+z\ncoeff1: -(n+z)\ncoeff0: -1\ninit: n0=1; 0, 1\n"
    )
    code, out, _ = run_cli(capsys, ["seq", str(path), "0", "5"])
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("11/6")


@pytest.mark.parametrize("z", ["1/3", "0.5", "1+2i"])
def test_seq_from_file_steps_at_its_z(tmp_path, capsys, z):
    # the file's recurrence takes Z as its param, as seq e Z does
    path = tmp_path / "rec.txt"
    path.write_text(
        "coeff2: n+z\ncoeff1: -(n+z)\ncoeff0: -1\ninit: n0=1; 0, 1\n"
    )
    code, out, _ = run_cli(capsys, ["seq", str(path), z, "30"])
    assert code == 0
    assert (0, out) == run_cli(capsys, ["seq", "e", z, "30"])[:2]
    assert len(out.splitlines()) == 30


def test_seq_file_reads_its_initial_values_as_it_reads_z(tmp_path, capsys):
    # an initial value takes the grammar of a Z: here a complex one
    path = tmp_path / "rec.txt"
    path.write_text("coeff2: n+z\ncoeff1: -(n+z)\ncoeff0: -1\ninit: n0=1; 0, 1+2i\n")
    code, out, _ = run_cli(capsys, ["seq", str(path), "1/2", "6"])
    rec = PRecurrence(order=2, coeffs=mirror_e().coeffs, initial_index=1,
                      initial_values=(Fraction(0), complex(1, 2)), param=Fraction(1, 2))
    want = [f"{n}\t{format_cnum(v, DOUBLE)}" for n, v in iter_sequence(rec, n_max=6)]
    assert (code, out.splitlines()) == (0, want)


def test_seq_file_sum_over_a_shared_denominator(tmp_path, capsys):
    # nine times 1/(n+1) is 9/(n+1): u_{n+1} = (n+1)/9 u_n, u_n = n!/9^(n-1)
    path = tmp_path / "rec.txt"
    path.write_text(f"coeff1: {'+'.join(['1/(n+1)'] * 9)}\ncoeff0: -1\n"
                    "init: n0=1; 1\n")
    code, out, _ = run_cli(capsys, ["seq", str(path), "0", "6"])
    assert code == 0
    assert [line.split("\t") for line in out.splitlines()] == [
        [str(n), str(Fraction(math.factorial(n), 9 ** (n - 1)))]
        for n in range(1, 7)]


def test_seq_file_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("coeff1: n+\ninit: n0=1; 1\n")
    code, _, err = run_cli(capsys, ["seq", str(path), "0", "5"])
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "n" + ")" * 3000,  # past the parser's nesting limit
    "*".join(["n"] * 200_000),  # a flat chain too deep for the syntax tree
])
def test_seq_file_deep_expression_is_a_parse_error(tmp_path, capsys, expr):
    path = tmp_path / "deep.txt"
    path.write_text(f"coeff1: {expr}\ncoeff0: 1\ninit: n0=1; 1\n")
    code, _, err = run_cli(capsys, ["seq", str(path), "0", "5"])
    assert code == 2
    assert "parse error" in err


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
        want = str(list(iter_sequence(mirror_e(1), n_max=2000))[-1][1])
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert len(want) > 4300
    assert (n, value) == ("2000", want)


def test_agf_g_far_up_the_imaginary_axis(capsys):
    # sin(pi z/2) of the reflection branch once overflowed here
    code, out, err = run_cli(capsys, ["agf", "g", "0+800i"])
    assert code == 0 and err == ""
    want = 0.0125000030517637581 * (1 - 1j)  # mpmath at 40 digits
    assert abs(parse_scalar(out.strip()) - want) <= 1e-9 * abs(want)


def test_agf_pole_names_pole_set(capsys):
    code, out, err = run_cli(capsys, ["agf", "f", "-2"])
    assert code == 1
    assert "{-2, -3, -4, ...}" in err
    assert err == "pole error: f has poles at {-2, -3, -4, ...}; z=-2 is one\n"
    code, out, err = run_cli(capsys, ["agf", "g", "-3"])
    assert (code, out) == (1, "")
    assert err == "pole error: g has poles at {-1, -2, -3, ...}; z=-3 is one\n"


def test_agf_extended_digits(capsys):
    code, out, _ = run_cli(capsys, ["agf", "f", "0", "--digits", "30"])
    assert code == 0
    import mpmath as mp

    with mp.workdps(40):
        want = mp.nstr(1 / mp.e, 25)
    assert out.strip()[:20] == want[:20]


@pytest.mark.parametrize("z", ["1/3", "0.7", "-5/4", "12.35"])
def test_agf_extended_reads_z_exactly(capsys, z):
    # a decimal Z is read exactly: 0.7 is f(7/10), which the double nearest
    # 0.7 misses by 3.9e-18
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40
    value = parse_scalar(z)
    zz = ctx.mpf(value.numerator) / value.denominator
    want = ctx.hyp1f1(1, zz + 3, -1) / (zz + 2)
    code, out, _ = run_cli(capsys, ["agf", "f", z, "--digits", "30"])
    assert code == 0 and abs(ctx.mpf(out.strip()) - want) <= 1e-28


def test_agf_g_lies_within_the_limit_of_pi(capsys):
    # the same 1/3 reaches g and the pi world's connection constant
    _, value, _ = run_cli(capsys, ["agf", "g", "1/3"])
    code, limit, _ = run_cli(capsys, ["limit", "pi", "1/3"])
    estimate, error = limit.split(" ± ")
    assert code == 0 and abs(float(value) - float(estimate)) <= float(error)


def test_limit_e(capsys):
    code, out, _ = run_cli(capsys, ["limit", "e", "0"])
    assert code == 0
    value = float(out.split("±")[0])
    assert abs(value - 0.3678794412) < 1e-8


def test_limit_json_says_what_ran(capsys):
    code, out, _ = run_cli(capsys, ["limit", "e", "0", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["engine"] == "fixed" and rep["digits"] == 30
    # the e world settles at its third sample, in a window of 3 samples
    assert rep["n"] == [32, 64, 128]
    assert len(rep["increments"]) == 2
    assert rep["error_estimate"] == max(rep["increments"][-1], rep["rounding_floor"])
    assert rep["timing_s"] > 0
    _, text, _ = run_cli(capsys, ["limit", "e", "0"])
    assert text == f"{rep['value']} ± {rep['error_estimate']:.2e}\n"
    _, out, _ = run_cli(capsys, ["limit", "e", "0", "--format", "json",
                                 "--digits", "40", "--n-base", "64", "--depth", "3"])
    rep = json.loads(out)
    assert (rep["digits"], rep["n"]) == (40, [64, 128, 256])
    # the pi world settles only in a full window of depth + 1 samples
    _, out, _ = run_cli(capsys, ["limit", "pi", "1/3", "--format", "json"])
    rep = json.loads(out)
    assert rep["n"] == [32 * 2**k for k in range(7)]
    assert len(rep["increments"]) == 6
    _, out, _ = run_cli(capsys, ["limit", "pi", "1/3", "--format", "json",
                                 "--digits", "40", "--n-base", "64", "--depth", "3"])
    rep = json.loads(out)
    assert (rep["digits"], rep["n"][:4], len(rep["increments"])) == (
        40, [64, 128, 256, 512], 3)


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


def test_limit_digits_sets_the_accumulation_precision(capsys, monkeypatch):
    import agflab.connection as connection

    seen = []
    real = connection.iter_values_at

    def spy(rec, ns, digits=None):
        seen.append(digits)
        return real(rec, ns, digits)

    monkeypatch.setattr(connection, "iter_values_at", spy)
    code, out, _ = run_cli(capsys, ["limit", "e", "1", "--digits", "40"])
    assert code == 0 and seen == [40]
    assert abs(float(out.split(" ± ")[0]) - (1 - 2 / math.e)) < 1e-15
    for digits in ([], ["--digits", "15"], ["--digits", "10"]):
        seen.clear()
        run_cli(capsys, ["limit", "e", "1", *digits])
        assert seen == [30]  # automatic: 30 digits for runs past n = 10^4


def test_digits_16_is_extended_everywhere(capsys):
    code, out, err = run_cli(capsys, ["agf", "f", "1", "--digits", "16"])
    assert code == 0, err
    assert out.strip() == "0.2642411176571154"  # 1 - 2/e to 16 digits
    code, out, err = run_cli(capsys, ["seq", "e", "1/3", "12", "--digits", "16"])
    assert code == 0, err
    rows = out.strip().splitlines()
    want = dict(iter_sequence(mirror_e(Fraction(1, 3)), n_max=12))[12]
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
    assert (code1, _untimed(out1)) == (code2, _untimed(out2))


def test_verify_duality_text_format(capsys):
    code, out, _ = run_cli(capsys, ["verify", "duality", "--format", "text"])
    assert code == 0
    assert "PASS duality_e" in out
    assert "PASS suite duality" in out


def test_verify_json_checks_carry_timing(capsys):
    code, out, _ = run_cli(capsys, ["verify", "ode", "--format", "json"])
    checks = json.loads(out)["checks"]
    assert code == 0 and len(checks) == 27
    assert all(type(c["timing_s"]) is float and c["timing_s"] >= 0 for c in checks)
    code, out, _ = run_cli(capsys, ["verify", "ode", "--format", "text"])
    assert code == 0 and "timing" not in out and len(out.splitlines()) == 28


def test_verify_duality_reports_a_consistency_error(capsys, monkeypatch):
    import agflab.exact as exact

    real = exact._pq_closed
    monkeypatch.setattr(exact, "_pq_closed", lambda m: (
        (real(m)[0] + 1, real(m)[1]) if m == 50 else real(m)))
    code, out, err = run_cli(capsys, ["verify", "duality"])
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert code == 1 and "duality_closed_forms_exact" in err
    assert [c["check"] for c in failed] == ["duality_closed_forms_exact"]
    assert "mismatch at m=50" in failed[0]["details"][0]


def _pq_closed_off_at_3(monkeypatch):
    import agflab.exact as exact

    real = exact._pq_closed
    monkeypatch.setattr(exact, "_pq_closed", lambda m: (
        (real(m)[0] + 1, real(m)[1]) if m == 3 else real(m)))


def test_verify_duality_fails_a_mismatch_inside_the_residual_check(capsys,
                                                                     monkeypatch):
    # m = 3 is inside duality_residuals(15): the pi world's residual check
    # fails with the mismatch as its detail, and the suite goes on
    _pq_closed_off_at_3(monkeypatch)
    code, out, err = run_cli(capsys, ["verify", "duality"])
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and err == "first failing check: duality_pi\n"
    assert {name: c["pass"] for name, c in checks.items()} == {
        "duality_e": True, "duality_pi": False, "duality_closed_forms_exact": False}
    for name in ("duality_pi", "duality_closed_forms_exact"):
        assert "pi-world duality form mismatch at m=3:" in checks[name]["details"][0]


def test_table_duality_exits_1_on_a_form_mismatch(capsys, monkeypatch):
    _pq_closed_off_at_3(monkeypatch)
    code, out, err = run_cli(capsys, ["table", "duality-pi", "--m-max", "5"])
    assert (code, out) == (1, "")
    assert err.startswith("consistency error: pi-world duality form mismatch at m=3:")
    assert err.count("\n") == 1


def test_a_tolerance_check_reports_the_bound_it_tests(capsys):
    # every record with a tolerance names it last in its params and passes
    # iff its worst deviation is at most it
    code, out, _ = run_cli(capsys, ["verify", "all", "--format", "json"])
    records = [*json.loads(out)["checks"], certify.identity_chain_e(12),
               certify.identity_chain_pi(12)]
    bounded = [r for r in records if "tolerance" in r["params"]]
    assert code == 0 and len(bounded) == 9
    for r in bounded:
        assert list(r["params"])[-1] == "tolerance", r["check"]
        assert r["pass"] is (r["max_deviation"] <= r["params"]["tolerance"])


def test_verify_afe_checks_the_anchors_of_f_spec(capsys, monkeypatch):
    import dataclasses

    import agflab.agf as agf

    real = agf.f_spec

    def off_at_1():
        spec = real()
        (p0, v0), (p1, v1) = spec.anchors
        return dataclasses.replace(spec, anchors=((p0, v0), (p1, v1 + 1e-9)))

    monkeypatch.setattr(agf, "f_spec", off_at_1)
    code, out, err = run_cli(capsys, ["verify", "afe"])
    failed = [c["check"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert (code, failed) == (1, ["explicit_anchors"])
    assert "explicit_anchors" in err


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

    ctx = MPContext()
    ctx.dps = 60
    for r in rows:
        form = duality_form_e(int(r["m"]))
        assert int(r["a"]) == form.a and int(r["b"]) == form.b
        regenerated = form.a - ctx.e * form.b
        assert abs(float(r["form_value"]) - regenerated) <= 1e-15 * abs(regenerated)


@pytest.mark.parametrize("world, x, y", [("e", "a", "b"), ("pi", "p", "q")])
def test_table_duality_values_past_the_double_range(capsys, world, x, y):
    # x and c y agree in all but their last few digits: (m+1)! has 375
    # digits at m = 200, and a float of it overflows from m = 170
    code, out, _ = run_cli(
        capsys, ["table", f"duality-{world}", "--m-max", "200", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["m"] for r in rows] == list(range(201))
    for r in rows:
        xv, yv = Fraction(r[x]), Fraction(r[y])
        ctx = MPContext()
        ctx.dps = 60 + len(str(int(xv)))
        exact = (ctx.mpf(xv.numerator) / xv.denominator
                 - getattr(ctx, world) * ctx.mpf(yv.numerator) / yv.denominator)
        assert abs(float(r["form_value"]) - exact) <= 1e-15 * abs(exact), r["m"]


def test_verify_duality_sees_f_off_by_a_millionth(capsys, monkeypatch):
    # the residuals are relative to the form's value, about 0.18 at m = 12
    real = agf.f_eval

    def off_at_12(z, cfg=DOUBLE):
        value = real(z, cfg)
        return value * (1 + 1e-6) if z == 12 else value

    monkeypatch.setattr(agf, "f_eval", off_at_12)
    code, out, err = run_cli(capsys, ["verify", "duality"])
    assert code == 1
    failed = [c["check"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == ["duality_e"]
    assert "duality_e" in err


def test_verify_duality_writes_pi_forms_like_the_table(capsys):
    code, out, _ = run_cli(capsys, ["verify", "duality"])
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    verified = [{k: r[k] for k in ("m", "p", "q")}
                for r in checks["duality_pi"]["details"]]
    code_table, out, _ = run_cli(
        capsys, ["table", "duality-pi", "--m-max", "15", "--format", "json"])
    tabled = [{k: r[k] for k in ("m", "p", "q")} for r in json.loads(out)["rows"]]
    assert (code, code_table) == (0, 0)
    assert len(verified) == 16 and verified == tabled
    assert verified[0] == {"m": 0, "p": "1/1", "q": "0/1"}


@pytest.mark.parametrize("kind", ["duality-e", "duality-pi"])
def test_table_duality_negative_m_max_exits_2(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["table", kind, "--m-max", "-1"])
    assert exc.value.code == 2
    assert "--m-max" in capsys.readouterr().err


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


def _scalar_grid_csv(grid) -> str:
    """table agf-grid's CSV, built one point at a time from f_eval, g_eval,
    the specs' coeff_at and the pole distances, with no residual pass."""
    functions = [("f", f_spec(), f_eval, f_pole_distance),
                 ("g", g_spec(), g_eval, g_pole_distance)]

    def value(h, pole_distance, w):  # None next to a pole
        if pole_distance(w) < 1e-3:
            return None
        try:
            return h(w)
        except PoleError:
            return None

    lines = [["re", "im", *(f"{name}_{part}" for name, *_ in functions
                            for part in ("re", "im", "afe_residual"))]]
    for z in grid_points(*grid):
        row = [f"{z.real:g}", f"{z.imag:g}"]
        for _, spec, h, pole_distance in functions:
            hs = [value(h, pole_distance, z + k) for k in range(spec.order + 1)]
            if hs[0] is None:
                row += ["pole"] * 3
                continue
            row += [f"{hs[0].real:.17g}", f"{hs[0].imag:.17g}"]
            if any(v is None for v in hs):
                row.append("pole")
                continue
            terms = [spec.coeff_at(k, z) * v for k, v in enumerate(hs)]
            scale = max(abs(t) for t in terms)
            row.append(f"{abs(sum(terms)) / scale if scale > 0 else 0.0:.3e}")
        lines.append(row)
    return "".join(",".join(line) + "\r\n" for line in lines)


def _window(rng, re_range, im_range, half=2.5, step=0.5) -> tuple:
    re, im = (rng.randint(round(4 * lo), round(4 * hi)) / 4
              for lo, hi in (re_range, im_range))
    return (re - half, re + half, im - half, im + half, step)


def test_agf_grid_is_the_scalar_route(capsys):
    rng = random.Random(23)
    inside = _window(rng, (14, 18), (9, 12))  # g's series sector past |z| = 20
    outside = _window(rng, (-20, -17), (2, 3))  # Re z < -|Im z|: log-Gammas
    axis = _window(rng, (-2, -1), (0, 0), half=2)  # poles of f and g, and 0
    plane = _window(rng, (-1.5, 12), (-80, 80))
    for grid, in_sector in ((inside, True), (outside, False)):
        pts = grid_points(*grid)
        assert min(map(abs, pts)) < 20 < max(map(abs, pts)), grid
        assert all((z.real >= -abs(z.imag)) == in_sector for z in pts), grid
    assert {0, -1, -2} <= set(grid_points(*axis))
    for grid in (inside, outside, axis, plane):
        code, out, _ = run_cli(capsys, ["table", "agf-grid",
                                        "--grid=" + ",".join(map(str, grid))])
        assert code == 0 and out == _scalar_grid_csv(grid), grid
    # the oracle's own pole cells: f at -3, -2 and g at -3, -2, -1, three each
    assert _scalar_grid_csv(axis).count("pole") == 15
    code, out, err = run_cli(capsys, ["table", "agf-grid", "--grid=1290,1310,0,1,5"])
    assert (code, out) == (1, "") and err.startswith("domain error: ")


def test_agf_grid_past_g_radius_exits_before_f_runs(capsys, monkeypatch):
    calls = []

    def counted(z, cfg=DOUBLE, f_eval=agf.f_eval):
        calls.append(z)
        return f_eval(z, cfg)

    monkeypatch.setattr(agf, "f_eval", counted)
    want = "domain error: g is evaluated only for |z| <= 1300; |z| = 1301\n"
    for grid in ("1301,1400,0,100,0.5", "1290,1310,0,1,5"):
        code, out, err = run_cli(capsys, ["table", "agf-grid", f"--grid={grid}"])
        assert (code, out, err, calls) == (1, "", want, []), grid
    # inside g's radius the same counter sees f's one pass
    code, _, _ = run_cli(capsys, ["table", "agf-grid", "--grid=0,1,0,1,0.5"])
    assert code == 0 and len(calls) == len(set(calls)) == 21


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


def test_verify_ode_names_the_first_nonzero_residual(capsys, monkeypatch):
    import agflab.certify as certify
    from agflab.holonomic import exact_series

    def corrupted_at_e_m3(rec, order):
        nums, den = exact_series(rec, order)
        if repr(rec.coeffs) == repr(mirror_e().coeffs) and rec.param == 3:
            nums[5] += den
        return nums, den

    monkeypatch.setattr(certify, "exact_series", corrupted_at_e_m3)
    code, out, _ = run_cli(capsys, ["verify", "ode"])
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    failed = checks.pop("ode_e_m3")
    assert not failed["pass"]
    (detail,) = failed["details"]
    assert re.fullmatch(r"first nonzero residual coefficient at x\^[5-7]", detail)
    assert all(c["pass"] and c["details"] == [] for c in checks.values())


def test_table_unwritable_path(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "out.csv"
    code, _, err = run_cli(capsys, ["table", "duality-e", "--out", str(target)])
    assert code == 2
    assert "error" in err.lower()
