import ast
from fractions import Fraction
from pathlib import Path

import pytest

import agflab.agf as agf
from agflab import worlds
from agflab.connection import F_SHELL, G_SHELL, estimate_connection_constant

SRC = Path(worlds.__file__).resolve().parent


@pytest.mark.parametrize("z", [Fraction(1, 3), Fraction(7, 2), 0.5 + 0.25j, 2 - 1j],
                         ids=str)
@pytest.mark.parametrize("name", list(worlds.table()))
def test_connection_constant_is_the_worlds_function(name, z):
    # the table wires each world's recurrence, shell and evaluator together
    world = worlds.world(name)
    est = estimate_connection_constant(world.recurrence(z), world.shell)
    assert abs(est.value - complex(world.evaluator(z))) <= est.error_estimate


def test_table_reads_each_function_when_called(monkeypatch):
    def replacement(z, cfg=None):
        return 0.0

    monkeypatch.setattr(agf, "g_eval", replacement)
    assert worlds.world("pi").evaluator is replacement
    assert worlds.functions()["g"].evaluator is replacement


def test_table_holds_the_connection_shells():
    # the benchmark's tracer tells the worlds apart by these very objects
    assert worlds.world("e").shell is F_SHELL
    assert worlds.world("pi").shell is G_SHELL
    # and builds no data per call: every limit op reads the table
    assert worlds.world("gamma").ode_values is worlds.world("gamma").ode_values


def test_unknown_world_is_a_value_error():
    with pytest.raises(ValueError, match="unknown world 'q'"):
        worlds.world("q")


def _world_name_uses(tree: ast.AST) -> list[int]:
    """Lines that compare with, key a dict by, or loop over the string 'e'
    or 'pi'."""
    def named(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(named(elt) for elt in node.elts)
        return isinstance(node, ast.Constant) and node.value in ("e", "pi")

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Dict):
            operands = [key for key in node.keys if key is not None]
        elif isinstance(node, (ast.For, ast.comprehension)):
            operands = [node.iter]
        else:
            continue
        lines += [operand.lineno for operand in operands if named(operand)][:1]
    return sorted(lines)


def test_no_world_name_branch_outside_the_table():
    found = {path.name: _world_name_uses(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "worlds.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_a_world_name_branch():
    source = ('a = world == "e"\nb = {"pi": 1}\nc = w in ("e", "pi")\n'
              'd = f("e")\nfor w in ("e", "pi"):\n    pass\ne = [w for w in ["pi"]]\n')
    assert _world_name_uses(ast.parse(source)) == [1, 2, 3, 5, 7]
