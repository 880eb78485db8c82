import dataclasses
import random
from fractions import Fraction
from operator import add

import pytest

from eisq import modforms
from eisq.errors import InternalCheckError, PrecisionError, ValidationError
from eisq.modforms import (
    QSeries,
    delta_cusp_constants,
    delta_series,
    eisenstein_eigencheck,
    hecke_t,
    hecke_u,
    sigma_prime_table,
    sigma_table,
)


def sigma(m: int) -> int:
    """Sum of the positive divisors of m, by trial division (the oracle for sigma_table)."""
    if m < 1:
        raise ValidationError(f"sigma needs m >= 1, got {m}")
    total = 1
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            power, term = 1, 1
            while rest % d == 0:
                rest //= d
                power *= d
                term += power
            total *= term
        d += 1
    if rest > 1:
        total *= 1 + rest
    return total


def sigma_prime(m: int, p: int) -> int:
    """Sum of the divisors of m coprime to p (the oracle for sigma_prime_table)."""
    if m < 1:
        raise ValidationError(f"sigma_prime needs m >= 1, got {m}")
    while m % p == 0:
        m //= p
    return sigma(m)


def test_sigma_examples():
    assert sigma(6) == 12
    assert sigma(1) == 1
    assert sigma_prime(10, 5) == 3
    assert [sigma(m) for m in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]
    assert sigma_table(8)[1:] == [1, 3, 4, 7, 6, 12, 8, 15]
    assert sigma_prime_table(10, 5)[10] == 3
    with pytest.raises(ValidationError):
        sigma(0)


def test_sigma_tables_against_trial_division():
    n = 10**4
    assert sigma_table(n) == [0] + [sigma(m) for m in range(1, n + 1)]
    for p in (5, 7, 101):
        assert sigma_prime_table(n, p) == [0] + [sigma_prime(m, p) for m in range(1, n + 1)]
    # every small n, so that each square d^2 <= n is the last entry of some
    # table, with p = 2, p above sqrt(n) and p above n
    for n in range(201):
        assert sigma_table(n) == [0] + [sigma(m) for m in range(1, n + 1)]
        for p in (2, 3, 97, 10007):
            assert sigma_prime_table(n, p) == [0] + [sigma_prime(m, p) for m in range(1, n + 1)], (n, p)
    assert sigma_table(0) == sigma_prime_table(0, 5) == [0]
    assert sigma_table(1) == sigma_prime_table(1, 5) == [0, 1]


def test_delta_series_examples():
    d5 = delta_series(5, 40)
    assert d5.coeffs[0] == 0
    assert d5.coeffs[1:8] == (1, 3, 4, 7, 0, 12, 8)
    assert all(d5.coeffs[5 * m] == 0 for m in range(1, 9))
    assert d5.coeffs[1] == 1


def test_delta_identity_with_eisenstein_pair():
    # construction asserts delta = (e(pz) - e(z))/24 internally; exercise it
    for p in (5, 7, 11, 13):
        delta_series(p, 500)


def _perturbed(table_fn, index):
    def perturbed(*args):
        table = table_fn(*args)
        table[index] += 1
        return table

    return perturbed


def test_delta_identity_names_first_bad_index(monkeypatch):
    # the sigma' side comes from sigma_prime_table alone: a wrong entry there,
    # whether p divides its index or not, fails the identity at that index
    original = modforms.sigma_prime_table
    for index in (37, 10):
        monkeypatch.setattr(modforms, "sigma_prime_table", _perturbed(original, index))
        with pytest.raises(InternalCheckError, match=f"^delta identity fails at {index} for p = 5$"):
            delta_series(5, 100)
    monkeypatch.setattr(modforms, "sigma_prime_table", original)
    monkeypatch.setattr(modforms, "sigma_table", _perturbed(modforms.sigma_table, 41))
    with pytest.raises(InternalCheckError, match="^delta identity fails at 41 for p = 5$"):
        delta_series(5, 100)


def _identity_oracle(sigmas, sigma_primes, p):
    """The first index where e(pz) = e(z) + 24 delta fails, or None, by the
    literal comparison of the two scaled series: e = (1-p) - 24 sum
    sigma'(m) q^m, and delta the sigma table with its multiples of p zeroed."""
    n = len(sigmas) - 1
    delta = list(sigmas)
    delta[::p] = [0] * (n // p + 1)
    e = [-24 * s for s in sigma_primes]
    e[0] = 1 - p
    e_pz = [0] * (n + 1)
    e_pz[::p] = e[: n // p + 1]
    want = [a + 24 * b for a, b in zip(e, delta)]
    return next((m for m in range(n + 1) if e_pz[m] != want[m]), None)


def test_delta_identity_first_bad_index_against_literal_identity(monkeypatch):
    # one entry of either table raised by one, at every index: delta_series
    # fails exactly where the literal identity first fails, and passes where
    # it holds (index 0, and the sigma entries that delta zeroes)
    n = 60
    originals = {"sigma_table": modforms.sigma_table, "sigma_prime_table": modforms.sigma_prime_table}
    passed = 0
    for p in (2, 3, 5, 7):
        for name, table_fn in originals.items():
            for index in range(n + 1):
                monkeypatch.setattr(modforms, name, _perturbed(table_fn, index))
                bad = _identity_oracle(modforms.sigma_table(n), modforms.sigma_prime_table(n, p), p)
                if bad is None:
                    delta_series(p, n)
                    passed += 1
                else:
                    with pytest.raises(InternalCheckError, match=f"^delta identity fails at {bad} for p = {p}$"):
                        delta_series(p, n)
                monkeypatch.setattr(modforms, name, table_fn)
    # the unperturbed sigma entries: index 0 and the multiples of p > 0
    # of the sigma table, 2 * 4 + 30 + 20 + 12 + 8 in all
    assert passed == 78
    # one entry of each table at once, so that either comparison may fail first
    for p in (2, 3, 5, 7):
        for i in range(0, n + 1, 3):
            for k in range(0, n + 1, 2):
                for name, table_fn, index in zip(originals, originals.values(), (i, k)):
                    monkeypatch.setattr(modforms, name, _perturbed(table_fn, index))
                bad = _identity_oracle(modforms.sigma_table(n), modforms.sigma_prime_table(n, p), p)
                if bad is None:
                    delta_series(p, n)
                else:
                    with pytest.raises(InternalCheckError, match=f"^delta identity fails at {bad} for p = {p}$"):
                        delta_series(p, n)
                for name, table_fn in originals.items():
                    monkeypatch.setattr(modforms, name, table_fn)


def test_delta_identity_guards_the_pair_table(monkeypatch):
    # sigma' is the divisor-pair table kept for every p at one precision,
    # corrected at the multiples of p: one entry of that table raised by
    # one, at every index, fails delta_series exactly where the literal
    # identity first fails, and passes where it holds (index 0 only)
    n = 60
    cold = modforms._pair_sigma_table.__wrapped__(n)
    passed = 0
    for p in (2, 3, 5, 7):
        for index in range(n + 1):
            bad_table = cold[:index] + (cold[index] + 1,) + cold[index + 1 :]
            monkeypatch.setattr(modforms, "_pair_sigma_table", lambda m, t=bad_table: t)
            bad = _identity_oracle(sigma_table(n), sigma_prime_table(n, p), p)
            if bad is None:
                delta_series(p, n)
                passed += 1
            else:
                with pytest.raises(InternalCheckError, match=f"^delta identity fails at {bad} for p = {p}$"):
                    delta_series(p, n)
    assert passed == 4


def test_eigencheck_reports_first_discrepancy(monkeypatch):
    # a_10 of delta at p = 5 raised by one: T_2 delta gains a_10 at m = 5
    # and 2 a_10 at m = 20 while 3 delta changes at 10, so m = 5 is first;
    # T_3 delta gains 3 a_10 at m = 30 and 4 delta changes at 10; U_5 delta
    # gains a_10 at m = 2
    d = delta_series(5, 120)
    bad = dataclasses.replace(d, coeffs=d.coeffs[:10] + (d.coeffs[10] + 1,) + d.coeffs[11:])
    monkeypatch.setattr(modforms, "delta_series", lambda p, prec: bad)
    rep = eisenstein_eigencheck(5, 120, primes=[2, 3, 13])
    assert not rep.ok
    got = {(r.operator, r.ell): (r.status, r.retained, r.first_discrepancy) for r in rep.results}
    assert got == {
        ("T", 2): ("fail", 60, 5),
        ("T", 3): ("fail", 40, 10),
        ("U", 5): ("fail", 24, 2),
        ("T", 13): ("insufficient_precision", 9, None),
    }


def test_eigencheck_first_discrepancy_across_blocks(monkeypatch):
    # the operator check compares 4096 coefficients at a time: one a_m
    # raised by one, on either side of a block edge and past the first
    # blocks, is found where a plain scan first finds it, or passes where
    # the operator's retained coefficients do not reach it
    prec = 20000
    d = delta_series(7, prec)
    seen = set()
    for index in (4095, 4096, 8193, 9001, 13334):
        bad = dataclasses.replace(d, coeffs=d.coeffs[:index] + (d.coeffs[index] + 1,) + d.coeffs[index + 1 :])
        monkeypatch.setattr(modforms, "delta_series", lambda p, prec, bad=bad: bad)
        for r in eisenstein_eigencheck(7, prec, primes=[2, 3]).results:
            image = (hecke_u(bad, 7) if r.operator == "U" else hecke_t(bad, r.ell)).coeffs
            value = 0 if r.operator == "U" else 1 + r.ell
            want = next((m for m in range(len(image)) if image[m] != value * bad.coeffs[m]), None)
            assert (r.status, r.first_discrepancy) == ("pass" if want is None else "fail", want), (index, r)
            seen.add(want)
    assert {4095, 4096, 8193, 9001, None} <= seen


def test_hecke_examples():
    d5 = delta_series(5, 200)
    t2 = hecke_t(d5, 2)
    assert t2.coeffs[1:5] == (3, 9, 12, 21)
    assert t2.coeffs == tuple(3 * a for a in d5.coeffs[: len(t2.coeffs)])
    assert not any(hecke_u(d5, 5).coeffs)
    t3 = hecke_t(d5, 3)
    assert t3.coeffs == tuple(4 * a for a in d5.coeffs[: len(t3.coeffs)])
    with pytest.raises(ValidationError):
        hecke_t(d5, 5)
    with pytest.raises(ValidationError):
        hecke_u(d5, 3)
    with pytest.raises(ValidationError):
        hecke_t(d5, 4)


def test_hecke_linear_and_commuting():
    rng = random.Random(6)
    level = 101
    for _ in range(25):
        prec = 120
        f = QSeries(level, tuple(rng.randrange(-9, 10) for _ in range(prec + 1)))
        g = QSeries(level, tuple(rng.randrange(-9, 10) for _ in range(prec + 1)))
        f_plus_g = QSeries(level, tuple(map(add, f.coeffs, g.coeffs)))
        for ell in (2, 3):
            lhs = tuple(map(add, hecke_t(f, ell).coeffs, hecke_t(g, ell).coeffs))
            assert lhs == hecke_t(f_plus_g, ell).coeffs
        assert hecke_t(hecke_t(f, 2), 3).coeffs == hecke_t(hecke_t(f, 3), 2).coeffs


def test_eigencheck_passes():
    for p in (5, 7, 11, 13):
        rep = eisenstein_eigencheck(p, 200)
        assert rep.ok
        checked = {r.ell for r in rep.results if r.status == "pass"}
        assert {2, 3, 5, 7, 11, 13} - {p} <= checked | set(rep.insufficient)


def test_eigencheck_insufficient_precision():
    rep = eisenstein_eigencheck(7, 40)
    assert rep.insufficient and 13 in rep.insufficient
    with pytest.raises(PrecisionError):
        eisenstein_eigencheck(7, 10, primes=[13])


def test_eigencheck_negative_control():
    d = delta_series(5, 120)
    bad = dataclasses.replace(d, coeffs=d.coeffs[:9] + (d.coeffs[9] + 1,) + d.coeffs[10:])
    t2 = hecke_t(bad, 2)
    assert t2.coeffs != tuple(3 * a for a in bad.coeffs[: len(t2.coeffs)])


def test_cusp_constants():
    assert delta_cusp_constants(5) == (Fraction(1, 5), Fraction(-4, 5))
    assert delta_cusp_constants(7) == (Fraction(2, 7), Fraction(-12, 7))
    assert delta_cusp_constants(11) == (Fraction(5, 11), Fraction(-50, 11))


def test_precision_bookkeeping():
    d = delta_series(7, 100)
    assert len(hecke_t(d, 3).coeffs) == 34
    assert len(hecke_u(d, 7).coeffs) == 15
