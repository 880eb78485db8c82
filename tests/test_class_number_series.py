"""Class numbers near the 10^9 cap against the analytic class number formula.

Near the cap, `fundamental_class_number` and the enumeration of reduced
forms share their root tables and the kept sieve, so their agreement there
is not an independent check.  This file sums the exponentially convergent
form of the analytic class number formula of a fundamental D < -4:

    h(D) = sum_{n >= 1} chi(n) (erfc(n sqrt(pi/|D|)) + sqrt(|D|)/(pi n) exp(-pi n^2/|D|))

with chi = (D/.), in floats (Cohen, GTM 138, Prop. 5.3.12 with w = 2).  The
terms past n sqrt(pi/|D|) = 6.5 are below 1e-17, so about 3.7 sqrt(|D|)
Kronecker symbols are summed.  The symbol is this file's own, and nothing
is imported from `eisq` but the function under test.
"""

import math

import pytest

from eisq.classgroup import fundamental_class_number


def _jacobi(a, m):
    """The Jacobi symbol (a/m) for odd m > 0, by quadratic reciprocity."""
    a, sym = a % m, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sym = -sym
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sym = -sym
        a %= m
    return sym if m == 1 else 0


def _kronecker(disc, n):
    """The Kronecker symbol (disc/n) of a discriminant disc and n >= 1:
    (disc/2) is 0 at an even disc, and -1 exactly when disc = 5 (mod 8)."""
    sym = 1
    while n % 2 == 0:
        n //= 2
        if disc % 2 == 0:
            return 0
        if disc % 8 == 5:
            sym = -sym
    return sym * _jacobi(disc, n)


def class_number_series(disc):
    """h(disc) of a fundamental disc < -4 from the series, checked to lie
    within 1e-3 of an integer."""
    scale, root = math.sqrt(math.pi / -disc), math.sqrt(-disc)
    total = 0.0
    for n in range(1, math.floor(6.5 / scale) + 1):
        chi = _kronecker(disc, n)
        if chi:
            x = n * scale
            total += chi * (math.erfc(x) + root / (math.pi * n) * math.exp(-x * x))
    h = round(total)
    assert h >= 1 and abs(total - h) < 1e-3, (disc, total)
    return h


def test_series_at_small_discriminants():
    # against the tabulated h at each residue class of D
    known = {-7: 1, -8: 1, -15: 2, -20: 2, -23: 3, -24: 2, -47: 5, -71: 7, -163: 1, -231: 12, -420: 8, -3299: 27}
    assert {d: class_number_series(d) for d in known} == known


@pytest.mark.parametrize(
    "disc",
    [
        -999999991,  # = 1 (mod 8)
        -999999995,  # = 5 (mod 8)
        -999999988,  # 4 | D, D/4 = 3 (mod 4)
        -999999992,  # 8 | D
    ],
)
def test_count_against_series_near_the_cap(disc):
    assert fundamental_class_number(disc) == class_number_series(disc)


def test_count_against_series_at_the_largest_pinned_h():
    assert fundamental_class_number(-9983951) == class_number_series(-9983951) == 6368
