"""Every verdict row's ``pass`` comes from one of ``cli``'s three report gates.

The gates return a row's ``reference``, ``tolerance`` and ``pass``
columns, so the verdict is computed from the two numbers the row prints.
Their boundaries are pinned here: at-least and within pass at equality,
below fails at equality, and a NaN value fails all three.  A parse of
``cli.py`` keeps runners from writing a verdict by hand.
"""

import ast
import math
from pathlib import Path

import pytest

from uncloneq import cli

GATES = {"_at_least": cli._at_least, "_within": cli._within, "_below": cli._below}


@pytest.mark.parametrize(
    "gate, args, passes",
    [
        # at least: value >= reference - tolerance
        (cli._at_least, (1.0, 1.5, 0.5), True),
        (cli._at_least, (0.75, 1.5, 0.5), False),
        (cli._at_least, (1.5, 1.5, 0.0), True),
        (cli._at_least, (2.0, 1.5, 0.0), True),
        # within: |value - reference| <= tolerance, from either side
        (cli._within, (1.5, 1.0, 0.5), True),
        (cli._within, (0.5, 1.0, 0.5), True),
        (cli._within, (1.75, 1.0, 0.5), False),
        (cli._within, (0.25, 1.0, 0.5), False),
        (cli._within, (4.5, 4.5, 0.0), True),
        # below: value < tolerance, so equality fails
        (cli._below, (0.25, 0.25), False),
        (cli._below, (0.125, 0.25), True),
        (cli._below, (-1.0, 0.25), True),
    ],
)
def test_gate_boundaries(gate, args, passes):
    assert gate(*args)["pass"] is passes


@pytest.mark.parametrize(
    "gate, args",
    [
        (cli._at_least, (math.nan, 1.0, 0.5)),
        (cli._within, (math.nan, 1.0, 0.5)),
        (cli._below, (math.nan, 0.25)),
    ],
)
def test_nan_fails_every_gate(gate, args):
    assert gate(*args)["pass"] is False


def test_gate_prints_what_it_compares():
    # the tail is the row's last three columns, in report order
    assert cli._at_least(1.0, 2.0, 0.5) == {"reference": 2.0, "tolerance": 0.5, "pass": False}
    assert cli._within(1.0, 2.0, 1.0) == {"reference": 2.0, "tolerance": 1.0, "pass": True}
    assert list(cli._below(0.0, 1e-8)) == ["reference", "tolerance", "pass"]
    assert cli._below(0.0, 1e-8)["reference"] == 0.0


def test_no_runner_hand_writes_a_verdict():
    # a dict literal with a "pass" key outside the gates may only hold None (the scan's rows)
    tree = ast.parse(Path(cli.__file__).read_text())
    helpers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in GATES]
    assert {node.name for node in helpers} == set(GATES)
    inside = {id(node) for helper in helpers for node in ast.walk(helper)}
    verdicts = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict) or id(node) in inside:
            continue
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and key.value == "pass" and not (
                isinstance(value, ast.Constant) and value.value is None
            ):
                verdicts.append(f"cli.py:{node.lineno}")
    assert not verdicts, verdicts
