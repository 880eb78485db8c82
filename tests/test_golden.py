"""Byte-identity of CLI output and library reprs against committed files.

Each case is a CLI invocation (exit code and stdout bytes are compared) or
a library call whose `repr` is compared.  The files under `tests/golden/`
were written by an earlier version of eisq; a change that alters any byte
of these outputs fails here.  Running this file writes the cases that have
no file yet and leaves every recorded one as it is; to rewrite recorded
cases on purpose, name them:

    PYTHONPATH=src python tests/test_golden.py              # new cases only
    PYTHONPATH=src python tests/test_golden.py eta-11-r     # rewrite eta-11-r
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from eisq import classgroup, descent, etacusp
from eisq.cli import main

GOLDEN = Path(__file__).with_name("golden")

CLI_CASES = {
    "classnum-p23": ["classnum", "--p", "23"],
    "classnum-p7-json": ["classnum", "--p", "7", "--format", "json"],
    "classnum-disc1003-json": ["classnum", "--disc", "-1003", "--format", "json"],
    "classnum-disc84-tsv": ["classnum", "--disc", "-84", "--format", "tsv"],
    "classnum-bad-p": ["classnum", "--p", "4"],
    "classnum-no-args": ["classnum"],
    "classnum-disc9983951-json": ["classnum", "--disc", "-9983951", "--format", "json"],
    "classnum-disc20412": ["classnum", "--disc", "-20412"],
    "classnum-disc4375-json": ["classnum", "--disc", "-4375", "--format", "json"],
    "classnum-disc3145728-json": ["classnum", "--disc", "-3145728", "--format", "json"],
    # a fundamental D with h = 5892, and D = 3^2 * (-444444), whose forms with gcd 3 are dropped
    "classnum-disc9999239-json": ["classnum", "--disc", "-9999239", "--format", "json"],
    "classnum-disc3999996-json": ["classnum", "--disc", "-3999996", "--format", "json"],
    "selmer-m11-oracle": ["selmer", "--p", "7", "--d", "-11", "--oracle"],
    "selmer-m11-oracle-json": ["selmer", "--p", "7", "--d", "-11", "--oracle", "--format", "json"],
    "selmer-d5-json": ["selmer", "--p", "7", "--d", "5", "--format", "json"],
    "selmer-p31-json": ["selmer", "--p", "31", "--d", "-3", "--format", "json"],
    "selmer-range-tsv": ["selmer", "--p", "7", "--d-range", "-60..60", "--format", "tsv"],
    "selmer-range-oracle-tsv": ["selmer", "--p", "7", "--d-range", "-40..40", "--oracle", "--format", "tsv"],
    "selmer-range-json": ["selmer", "--p", "23", "--d-range", "-40..40", "--format", "json"],
    "selmer-no-d": ["selmer", "--p", "7"],
    "selmer-p71-m15-oracle-json": ["selmer", "--p", "71", "--d", "-15", "--oracle", "--format", "json"],
    "selmer-p71-m1155-oracle-json": ["selmer", "--p", "71", "--d", "-1155", "--oracle", "--format", "json"],
    "selmer-p47-d21-oracle": ["selmer", "--p", "47", "--d", "21", "--oracle"],
    "selmer-p7-17-vertices-json": ["selmer", "--p", "7", "--d", "-2943050537207", "--format", "json"],
    "selmer-range-200001-tsv": ["selmer", "--p", "7", "--d-range", "200001..200021", "--format", "tsv"],
    "selmer-p23-m1000000007-oracle-json": [
        "selmer", "--p", "23", "--d", "-1000000007", "--oracle", "--format", "json"
    ],
    "selmer-p47-m1000000007-json": ["selmer", "--p", "47", "--d", "-1000000007", "--format", "json"],
    # widths 9 and 11 of the exhaustive oracle: split-heavy twists (2-3 split
    # primes of each residue mod 4) and inert-only twists
    "selmer-p7-w9-split-oracle-json": ["selmer", "--p", "7", "--d", "271469", "--oracle", "--format", "json"],
    "selmer-p7-w9-inert-oracle-json": ["selmer", "--p", "7", "--d", "3762534945", "--oracle", "--format", "json"],
    "selmer-p7-w11-split-oracle-json": ["selmer", "--p", "7", "--d", "-11673167", "--oracle", "--format", "json"],
    "selmer-p7-w11-inert-oracle-json": [
        "selmer", "--p", "7", "--d", "-13541363267055", "--oracle", "--format", "json"
    ],
    "selmer-p71-w9-split-oracle-json": ["selmer", "--p", "71", "--d", "8265", "--oracle", "--format", "json"],
    "selmer-p71-w9-inert-oracle-json": ["selmer", "--p", "71", "--d", "-23380524167", "--oracle", "--format", "json"],
    "selmer-p71-w11-split-oracle-json": ["selmer", "--p", "71", "--d", "305805", "--oracle", "--format", "json"],
    "selmer-p71-w11-inert-oracle-json": [
        "selmer", "--p", "71", "--d", "73110899070209", "--oracle", "--format", "json"
    ],
    "selmer-p23-range-1000-oracle-tsv": ["selmer", "--p", "23", "--d-range", "-1000..1000", "--oracle", "--format", "tsv"],
    # sweeps without the oracle over fields of class number 3, 5 and 7
    "selmer-p31-range-1000-tsv": ["selmer", "--p", "31", "--d-range", "-1000..1000", "--format", "tsv"],
    "selmer-p47-range-1000-tsv": ["selmer", "--p", "47", "--d-range", "-1000..1000", "--format", "tsv"],
    "selmer-p71-range-1000-tsv": ["selmer", "--p", "71", "--d-range", "-1000..1000", "--format", "tsv"],
    # large class numbers, h(-1031) = 35 and h(-100103) = 279: split
    # generators of q^35 and q^279 at their own and conjugate places
    "selmer-p100103-range-300-tsv": ["selmer", "--p", "100103", "--d-range", "-300..300", "--format", "tsv"],
    "selmer-p100103-m3-oracle-json": ["selmer", "--p", "100103", "--d", "-3", "--oracle", "--format", "json"],
    "selmer-p1031-d385-oracle-json": ["selmer", "--p", "1031", "--d", "385", "--oracle", "--format", "json"],
    "eta-11-special": ["eta", "--N", "11", "--special"],
    "eta-13-special-json": ["eta", "--N", "13", "--special", "--format", "json"],
    "eta-49-special-json": ["eta", "--N", "49", "--special", "--format", "json"],
    "eta-121-special": ["eta", "--N", "121", "--special"],
    "eta-169-special-json": ["eta", "--N", "169", "--special", "--format", "json"],
    "eta-11-r": ["eta", "--N", "11", "--r", "12,-12"],
    "eta-49-r-json": ["eta", "--N", "49", "--r=-1,8,-7", "--format", "json"],
    "eta-r-dash-usage": ["eta", "--N", "49", "--r", "-1,8,-7"],
    "eta-169-r-json": ["eta", "--N", "169", "--r", "24,0,-24", "--format", "json"],
    "eta-49-r-failing": ["eta", "--N", "49", "--r", "1,-1,0"],
    "eta-121-r-failing-json": ["eta", "--N", "121", "--r", "2,-2,0", "--format", "json"],
    "eta-wrong-count": ["eta", "--N", "49", "--r", "1,-1"],
    "eta-bad-level": ["eta", "--N", "12", "--special"],
    "eta-25-special": ["eta", "--N", "25", "--special"],
    "eta-5-special-json": ["eta", "--N", "5", "--special", "--format", "json"],
    "eta-9-special": ["eta", "--N", "9", "--special"],
    "eta-1009-special": ["eta", "--N", "1009", "--special"],
    "eta-1018081-special-json": ["eta", "--N", "1018081", "--special", "--format", "json"],
    "eta-1018081-r-json": ["eta", "--N", "1018081", "--r", "24,0,-24", "--format", "json"],
    "heegner-p11": ["heegner", "--p", "11", "--K", "-7", "--q", "5"],
    "heegner-p11-inconclusive": ["heegner", "--p", "11", "--K", "-79", "--q", "5"],
    "heegner-p61-json": ["heegner", "--p", "61", "--K", "-2711", "--q", "5", "--format", "json"],
    "heegner-bad-q": ["heegner", "--p", "37", "--K", "-1003", "--q", "3"],
    "heegner-p73-q2-json": ["heegner", "--p", "73", "--K", "-19", "--q", "2", "--format", "json"],
    "heegner-p2-13": ["heegner", "--p2", "13", "--K", "-3", "--q", "7"],
    "heegner-p2-13-json": ["heegner", "--p2", "13", "--K", "-23", "--q", "7", "--format", "json"],
    "heegner-p2-41-json": ["heegner", "--p2", "41", "--K", "-1439", "--q", "7", "--format", "json"],
    "heegner-p2-101": ["heegner", "--p2", "101", "--K", "-9983", "--q", "17"],
    "heegner-p2-29": ["heegner", "--p2", "29", "--K", "-7", "--q", "5"],
    "heegner-ns73": ["heegner", "--ns", "73", "--K", "-19"],
    "heegner-ns89-json": ["heegner", "--ns", "89", "--format", "json"],
    "heegner-p-no-q": ["heegner", "--p", "11", "--K", "-7"],
    "heegner-no-args": ["heegner"],
    "heegner-p97-q2-h6368-json": ["heegner", "--p", "97", "--K", "-9983951", "--q", "2", "--format", "json"],
    "heegner-p97-q2-prime-disc-json": ["heegner", "--p", "97", "--K", "-9983983", "--q", "2", "--format", "json"],
    "heegner-p61-disc99990007-json": ["heegner", "--p", "61", "--K", "-99990007", "--q", "5", "--format", "json"],
    "heegner-p2-89-disc10000004-json": ["heegner", "--p2", "89", "--K", "-10000004", "--q", "5", "--format", "json"],
    "heegner-p2-139-disc9999015": ["heegner", "--p2", "139", "--K", "-9999015", "--q", "7"],
    "heegner-ns73-disc9990047-json": ["heegner", "--ns", "73", "--K", "-9990047", "--format", "json"],
    "heegner-ns73-not-disc-json": ["heegner", "--ns", "73", "--K", "-9990121", "--format", "json"],
    "heegner-p11-not-fundamental": ["heegner", "--p", "11", "--K", "-36", "--q", "5"],
    "heegner-p2-13-not-fundamental-even": ["heegner", "--p2", "13", "--K", "-24012", "--q", "7"],
    "heegner-p1009-disc1000015-q7": ["heegner", "--p", "1009", "--K", "-1000015", "--q", "7"],
    # 11 is inert in Q(sqrt(-3)): the order of a prime class above it is not evaluated
    "heegner-p11-inert": ["heegner", "--p", "11", "--K", "-3", "--q", "5"],
    "eigencheck-p5": ["eigencheck", "--p", "5", "--prec", "200"],
    "eigencheck-p7-json": ["eigencheck", "--p", "7", "--prec", "40", "--format", "json"],
    "eigencheck-primes-json": ["eigencheck", "--p", "11", "--prec", "60", "--primes", "2,3,11", "--format", "json"],
    "eigencheck-p1009-prec10000-json": ["eigencheck", "--p", "1009", "--prec", "10000", "--format", "json"],
    "eigencheck-p2-prec5000": ["eigencheck", "--p", "2", "--prec", "5000"],
    "eigencheck-p3-prec10000-primes-json": [
        "eigencheck", "--p", "3", "--prec", "10000", "--primes", "2,3,97", "--format", "json"
    ],
}


def _verdict(level, r, coeffs, disc, q):
    div = etacusp.CuspDivisor.from_map(level, coeffs)
    return descent.verdict_rational_divisor(level, r, div, disc, q)


def _canonical_p2(p):
    return {1: -1, p: p + 1, p * p: -p}, {p: 1, p * p: -(p - 1)}


class _Text(str):
    """A line that `run_library` writes as it is."""

    __repr__ = str.__str__


def _class_orders():
    def class_number(d):
        # counted at a fundamental D, listed at any other
        return classgroup.fundamental_class_number(d) if classgroup.is_fundamental(d) else len(classgroup.reduced_forms(d))

    discs = (-3, -4, -36, -84, -1003, -4375, -20412, -236196, -3145728, -9983951, -10000004, -99990007)
    counts = [(d, class_number(d)) for d in discs]
    # every 97th form of three non-fundamental discriminants, given h, each
    # form written (a,b,c)
    orders = [
        _Text(f"(({a},{b},{c}), {classgroup.class_order((a, b, c), class_number(d))})")
        for d in (-20412, -4 * 3**10, -3 * 2**20)
        for a, b, c in classgroup.reduced_forms(d)[1::97]
    ]
    split = [classgroup.class_order(classgroup.prime_form(-9983951, 97), 6368)]
    return counts + orders + split


LIBRARY_CASES = {
    "class-orders": _class_orders,
    "cuspidal-invariants": lambda: [etacusp.cuspidal_group_invariants(p) for p in (5, 7, 11, 13, 37, 97)],
    "cuspidal-invariants-1009-1153": lambda: [etacusp.cuspidal_group_invariants(p) for p in (1009, 1153)],
    "verdict-prime-level": lambda: [
        _verdict(11, {1: 12, 11: -12}, {1: 1, 11: -1}, -7, 5),
        _verdict(11, {1: 12, 11: -12}, {1: 1, 11: -1}, -79, 5),
    ],
    "verdict-p2-level": lambda: [
        _verdict(p * p, *_canonical_p2(p), disc, q)
        for p, disc, q in (
            (11, -7, 5),
            (13, -3, 7),
            (13, -23, 7),
            (29, -1003, 7),
            (41, -1439, 5),
            (61, -2711, 5),
            (61, -10007, 31),
            (101, -9983, 17),
            (101, -5867, 5),
        )
    ],
    "verdict-p2-level-large-disc": lambda: [
        _verdict(p * p, *_canonical_p2(p), disc, q)
        for p, disc, q in ((89, -10000004, 5), (89, -10000004, 11), (139, -9999015, 7), (97, -9983951, 7))
    ],
    # p = 1 (mod 12), the largest lattice; q = 577 divides (p^2 - 1)/24
    "verdict-p2-level-1153": lambda: [_verdict(1153 * 1153, *_canonical_p2(1153), -1000003, 577)],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def run_library(call):
    return 0, "".join(repr(x) + "\n" for x in call())


def _all_cases():
    for name, argv in CLI_CASES.items():
        yield name, lambda argv=argv: run_cli(argv)
    for name, call in LIBRARY_CASES.items():
        yield name, lambda call=call: run_library(call)


@pytest.mark.parametrize("name", list(CLI_CASES) + list(LIBRARY_CASES))
def test_golden(name):
    run = dict(_all_cases())[name]
    code, out = run()
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exits[name]
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def write_golden(names):
    """Write the named cases, or with no names every case without a file."""
    GOLDEN.mkdir(exist_ok=True)
    codes = GOLDEN / "exit_codes.json"
    exits = json.loads(codes.read_text()) if codes.exists() else {}
    cases = dict(_all_cases())
    unknown = [name for name in names if name not in cases]
    if unknown:
        return f"unknown golden cases: {', '.join(unknown)}"
    for name in names or [n for n in cases if not (GOLDEN / f"{n}.stdout").exists()]:
        exits[name], out = cases[name]()
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
        print(f"wrote {name}")
    codes.write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(write_golden(sys.argv[1:]))
