"""Every input check, in the engine, the dataset pipeline and the CLI
families, tests its bound inline and calls ``require`` only to raise.

``require(name, value, unit, low, strict, high)`` builds each message, and
its caller spells the same bound a second time as an inline comparison, so a
passing check costs that comparison alone.  One test keeps the two spellings
of every bound equal; another counts the ``require`` calls that a valid call
of each engine and dataset operation makes, which must be none.
"""

import ast
import math
from pathlib import Path

import pytest
from test_contract import BASELINES

from rfsense import (
    _cli_dataset,
    _cli_fieldmetrics,
    _cli_linkbudget,
    _cli_radar,
    _cli_radiometry,
    _cli_rydberg,
    dataset,
    errors,
    fieldmetrics,
    linkbudget,
    quantities,
    radar,
    radiometry,
    rydberg,
)

MODULES = (radiometry, radar, linkbudget, fieldmetrics, rydberg, quantities, dataset,
           _cli_dataset, _cli_fieldmetrics, _cli_linkbudget, _cli_radar, _cli_radiometry,
           _cli_rydberg)
NAMES = {module.__name__.rpartition(".")[2]: module for module in MODULES}
REQUIRE_PARAMETERS = ("name", "value", "unit", "low", "strict", "high")


def _tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _is_require(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "require")


def _guards(tree):
    """Every ``if not <test>:`` whose body is only ``require(...)`` calls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.UnaryOp)
                and isinstance(node.test.op, ast.Not)
                and all(isinstance(s, ast.Expr) and _is_require(s.value) for s in node.body)):
            yield node


def _bound(call) -> ast.Compare:
    """``low < value <= high`` (``<=`` twice when not strict) of a ``require`` call."""
    args = dict(zip(REQUIRE_PARAMETERS, call.args))
    args.update((keyword.arg, keyword.value) for keyword in call.keywords)
    strict = args.get("strict", ast.Constant(True))
    assert isinstance(strict, ast.Constant), ast.unparse(call)
    return ast.Compare(
        left=args.get("low", ast.Constant(0.0)),
        ops=[ast.Lt() if strict.value else ast.LtE(), ast.LtE()],
        comparators=[args["value"], args.get("high", ast.Name("FLOAT_MAX", ast.Load()))],
    )


@pytest.mark.parametrize("name", sorted(NAMES))
def test_each_inline_test_is_the_bounds_of_its_require_calls(name):
    guards = list(_guards(_tree(NAMES[name])))
    # A module that never imports require has no check to guard.
    assert guards or not hasattr(NAMES[name], "require")
    for guard in guards:
        bounds = [_bound(statement.value) for statement in guard.body]
        expected = bounds[0] if len(bounds) == 1 else ast.BoolOp(ast.And(), bounds)
        assert ast.dump(guard.test.operand) == ast.dump(expected), (
            f"{name}.py:{guard.lineno}: expected `if not ({ast.unparse(expected)}):`"
        )


@pytest.mark.parametrize("name", sorted(NAMES))
def test_every_require_call_sits_behind_its_inline_test(name):
    tree = _tree(NAMES[name])
    guarded = {id(statement.value) for guard in _guards(tree) for statement in guard.body}
    bare = [node.lineno for node in ast.walk(tree) if _is_require(node) and id(node) not in guarded]
    assert bare == [], f"{name}.py: require called outside an inline test at lines {bare}"


ENGINE_OPERATIONS = sorted(op for op in BASELINES if op.partition(".")[0] in NAMES)


@pytest.mark.parametrize("operation", ENGINE_OPERATIONS)
def test_a_valid_call_makes_no_require_call(operation, monkeypatch):
    names = []

    def counting(*args, **kwargs):
        names.append(args[0])
        return errors.require(*args, **kwargs)

    for module in MODULES:
        if hasattr(module, "require"):
            monkeypatch.setattr(module, "require", counting)
    call, parameters = BASELINES[operation]
    valid = {name: value for name, (value, _) in parameters.items()}
    call(**valid)
    assert names == []
    # The wrapper sees the check that fails, so the count above is not vacuous.
    for parameter in parameters:
        with pytest.raises(errors.DomainError):
            call(**{**valid, parameter: math.nan})
        assert names
