"""Every check in eisq holds under `python -O`, which strips `assert`
statements: the package holds none, and golden cases run under -O give
the same bytes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import eisq

from test_golden import GOLDEN

SRC = Path(eisq.__file__).parent

# every layer: class numbers and orders, Selmer with the oracle (quadfield's
# local data and split generators), eta products (with divisors integral or
# not) and the lattice, verdicts of every kind, eigenchecks, and exits 2 and 4;
# the rejection of p < 5, the closed form at level p and the rejection of a
# non-discriminant by the class number, each decided in one place, and the
# general verdict's checks of its eta-product at level p as at p^2
OPTIMIZED_CASES = (
    "classnum-disc1003-json",
    "classnum-disc3999996-json",
    "selmer-m11-oracle-json",
    "selmer-p71-m1155-oracle-json",
    "selmer-range-oracle-tsv",
    "selmer-p23-m1000000007-oracle-json",
    "selmer-p71-range-1000-tsv",
    "eta-169-special-json",
    "eta-1018081-special-json",
    "eta-121-r-failing-json",
    "eta-49-r-failing",
    "eta-bad-level",
    "eta-9-special",
    "eta-11-special",
    "heegner-p11",
    "heegner-p61-json",
    "heegner-p73-q2-json",
    "heegner-p2-41-json",
    "heegner-p2-101",
    "heegner-ns73",
    "heegner-ns73-not-disc-json",
    "heegner-bad-q",
    "eigencheck-p7-json",
    "class-orders",
    "cuspidal-invariants",
    "verdict-prime-level",
    "verdict-p2-level",
    "verdict-p2-level-1153",
)

RUNNER = """
import json, sys
import test_golden
cases = dict(test_golden._all_cases())
out = {name: cases[name]() for name in sys.argv[1:]}
print(json.dumps({"optimize": sys.flags.optimize, "cases": out}))
"""


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_golden_cases_under_optimize():
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(tests)]), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", RUNNER, *OPTIMIZED_CASES],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    for name in OPTIMIZED_CASES:
        code, out = result["cases"][name]
        assert code == exits[name], name
        assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes(), name
