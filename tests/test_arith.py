import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisq import arith
from eisq.arith import (
    Factorization,
    cornacchia,
    factor,
    hensel_lift,
    is_prime,
    jacobi,
    smallest_prime_factors,
    sqrt_mod_prime_power,
    valuation,
)
from eisq.errors import FactorizationIncomplete, InternalCheckError, ValidationError


def norm_equation_sweep(p, m):
    """Every nonnegative (s, t) with s^2 + p*t^2 = 4m, smallest t first."""
    out = []
    for t in range(math.isqrt(4 * m // p) + 1):
        s = math.isqrt(4 * m - p * t * t)
        if s * s == 4 * m - p * t * t:
            out.append((s, t))
    return out


def is_primitive(s, t):
    # (s + t*sqrt(-p))/2 = a + b*w with a = (s - t)/2 and b = t is not divisible by an integer > 1
    return math.gcd((s - t) // 2, t) == 1


def cornacchia_4m(p, m, roots=None):
    """The solutions of s^2 + p*t^2 = 4m that Cornacchia finds over every square
    root of -p mod m (by trial when not given)."""
    if roots is None:
        roots = [r for r in range(m) if (r * r + p) % m == 0]
    return {cornacchia(p, r, m) for r in roots} - {None}


def test_jacobi_examples():
    assert jacobi(2, 7) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(-7, 11) == 1


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValidationError):
        jacobi(3, 8)
    with pytest.raises(ValidationError):
        jacobi(3, -5)


def test_jacobi_zero_iff_common_factor():
    for a in range(-20, 40):
        for n in (3, 9, 15, 35):
            assert (jacobi(a, n) == 0) == (math.gcd(a, n) > 1)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(0, 10**5))
@settings(max_examples=200, deadline=None)
def test_jacobi_multiplicative(a, b, nseed):
    n = 2 * nseed + 1
    assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)


def test_jacobi_multiplicative_bulk():
    rng = random.Random(17)
    for _ in range(1000):
        a = rng.randrange(-10**9, 10**9)
        b = rng.randrange(-10**9, 10**9)
        n = 2 * rng.randrange(1, 10**9) + 1
        assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)


def test_jacobi_matches_euler_criterion():
    rng = random.Random(7)
    primes = [q for q in range(3, 3000) if is_prime(q)]
    for _ in range(500):
        q = rng.choice(primes)
        a = rng.randrange(-10**6, 10**6)
        euler = pow(a % q, (q - 1) // 2, q)
        expected = 0 if a % q == 0 else (1 if euler == 1 else -1)
        assert jacobi(a, q) == expected


def test_is_prime_examples():
    assert is_prime(73)
    assert not is_prime(49)
    assert not is_prime(1)
    assert not is_prime(-7)
    assert not is_prime(0)


def test_is_prime_against_sieve():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_smallest_prime_factors_against_factor():
    spf = smallest_prime_factors(5000)
    assert spf[:2] == [0, 1] and smallest_prime_factors(0) == [0]
    for m in range(2, 5001):
        assert spf[m] == factor(m).factors[0][0], m


def _spf_by_marking(n):
    spf = list(range(n + 1))
    for ell in range(2, math.isqrt(max(n, 0)) + 1):
        if spf[ell] == ell:
            for m in range(ell * ell, n + 1, ell):
                if spf[m] == m:
                    spf[m] = ell
    return spf


def test_smallest_prime_factors_against_marking():
    for n in [*range(-2, 500), 10**4, 10**5 + 7]:
        assert smallest_prime_factors(n) == _spf_by_marking(n), n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**19 - 1))


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


def test_is_prime_needs_the_extra_bases():
    # psi_12 and psi_13 (Sorenson-Webster), the least strong pseudoprimes to
    # every prime base up to 37 and up to 41: both lie above 2^64 and pass
    # all 12 fixed bases, so only the extra bases find them composite
    assert arith.MR_EXTRA_BASES == (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)
    for n, (u, v) in (
        (318665857834031151167461, (399165290221, 798330580441)),
        (3317044064679887385961981, (1287836182261, 2575672364521)),
    ):
        assert n == u * v and n >= 1 << 64
        assert all(_strong_probable_prime(n, a) for a in arith.MR_BASES)
        assert not is_prime(n)


def test_factor_examples():
    f = factor(-33)
    assert f.sign == -1 and f.factors == ((3, 1), (11, 1))
    assert factor(4 * 29**3).factors == ((2, 2), (29, 3))
    assert factor(1) == Factorization(1, ())
    with pytest.raises(ValidationError):
        factor(0)


@given(st.integers(-10**9, 10**9).filter(lambda n: n != 0))
@settings(max_examples=200, deadline=None)
def test_factor_recomposes(n):
    f = factor(n)
    assert f.recompose() == n
    for q, _ in f.factors:
        assert is_prime(q)


def test_factor_budget_is_honest(monkeypatch):
    # a semiprime too hard for an absurdly tiny rho budget, read at call time
    monkeypatch.setattr(arith, "RHO_BUDGET", 2)
    n = (2**61 - 1) * (2**89 - 1)
    with pytest.raises(FactorizationIncomplete, match="rho budget 2 exhausted"):
        factor(n)


def test_sqrt_mod_prime_examples():
    # the roots mod a prime, the smaller first: none at a non-residue, 0 alone at a = 0
    assert sqrt_mod_prime_power(-7, 11, 1) == [2, 9]
    assert sqrt_mod_prime_power(3, 5, 1) == []
    assert sqrt_mod_prime_power(0, 7, 1) == [0]


def test_sqrt_mod_prime_property():
    rng = random.Random(11)
    primes = [q for q in range(3, 5000) if is_prime(q)]
    for _ in range(400):
        q = rng.choice(primes)
        a = rng.randrange(q)
        roots = sqrt_mod_prime_power(a, q, 1)
        if not roots:
            assert jacobi(a, q) == -1
        else:
            r = roots[0]
            assert r * r % q == a % q
            assert r <= q - r  # deterministic smaller root


def _prime_powers(bound=3000):
    """(q, e, q^e, roots) for every prime q < 40 and every q^e <= bound, where
    roots[a] lists every x in [0, q^e) with x^2 = a (mod q^e), in order."""
    for q in (q for q in range(2, 40) if is_prime(q)):
        e, qe = 1, q
        while qe <= bound:
            roots = [[] for _ in range(qe)]
            for x in range(qe):
                roots[x * x % qe].append(x)
            yield q, e, qe, roots
            e, qe = e + 1, qe * q


def test_sqrt_mod_prime_power_against_brute_force():
    for q, e, qe, roots in _prime_powers():
        for a in range(-qe, qe):
            assert sqrt_mod_prime_power(a, q, e) == roots[a % qe], (a, q, e)
    assert sqrt_mod_prime_power(-7, 2, 5) == [5, 11, 21, 27]


def test_hensel_lift_against_brute_force():
    for q, e, qe, roots in _prime_powers():
        if q == 2:
            continue
        for a in range(-qe, qe):
            if a % q == 0:
                continue
            for x in roots[a % qe]:
                for r in (x % q, x % q - q, x % q + q):
                    assert hensel_lift(r, a, q, e) == x, (r, a, q, e)
    big = 10**9 + 7
    r = sqrt_mod_prime_power(-23, big, 1)[0]
    x = hensel_lift(r, -23, big, 5)
    assert (x * x + 23) % big**5 == 0 and x % big == r


def test_root_checks_raise():
    # 2 is no root of 3 mod 7, and 3 has none: no lift may come back
    for e in (1, 2, 5):
        with pytest.raises(InternalCheckError):
            hensel_lift(2, 3, 7, e)
    with pytest.raises(InternalCheckError):
        hensel_lift(1, 3, 13, 3)  # 3 = 4^2 (mod 13), but 1 is no root


def test_square_root_and_factor_checks_raise(monkeypatch):
    # a Jacobi symbol that calls the non-residue 3 mod 7 a square, and a rho
    # split that is no divisor: the final checks catch the wrong answers
    real = arith.jacobi
    monkeypatch.setattr(arith, "jacobi", lambda a, n: 1 if (a % n, n) == (3, 7) else real(a, n))
    with pytest.raises(InternalCheckError):
        sqrt_mod_prime_power(3, 7, 1)
    monkeypatch.setattr(arith, "_pollard_rho", lambda n, budget: 3)
    with pytest.raises(InternalCheckError):
        factor(10007 * 10009)


def test_root_checks_run_under_optimize():
    # raises, not asserts, so python -O keeps them
    code = (
        "from eisq.arith import hensel_lift\n"
        "from eisq.errors import InternalCheckError\n"
        "try:\n"
        "    hensel_lift(2, 3, 7, 3)\n"
        "except InternalCheckError:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert out.stdout == "raised\n", out.stderr


def test_cornacchia_examples():
    assert cornacchia(7, 2, 11) == cornacchia(7, 9, 11) == (4, 2)
    assert cornacchia_4m(7, 29) == {(2, 4)}
    assert cornacchia_4m(7, 3) == set()  # -7 is not a square mod 3
    # 3 splits in Q(sqrt(-23)) but its primes are not principal; their cubes are
    assert cornacchia(23, 1, 3) is None and cornacchia(23, 2, 3) is None
    assert cornacchia_4m(23, 27) == {(4, 2)}


def test_cornacchia_identity_property():
    # the step finds exactly the primitive solutions, one root at a time
    for p in (7, 23, 31, 47):
        for m in range(3, 400, 2):
            if math.gcd(m, p) != 1:
                continue
            want = {(s, t) for s, t in norm_equation_sweep(p, m) if is_primitive(s, t)}
            got = cornacchia_4m(p, m)
            assert got == want, (p, m)
            for s, t in got:
                assert s >= 0 and t >= 0 and s * s + p * t * t == 4 * m


def test_cornacchia_rejects_bad_input():
    with pytest.raises(ValidationError):
        cornacchia(13, 1, 7)  # 13 = 1 mod 4
    with pytest.raises(ValidationError):
        cornacchia(7, 0, 21)  # shares a factor with p
    with pytest.raises(ValidationError):
        cornacchia(7, 2, 22)  # even m
    with pytest.raises(ValidationError):
        cornacchia(7, 3, 11)  # 3^2 != -7 mod 11
    with pytest.raises(ValidationError):
        cornacchia(7, 0, 1)


def test_cornacchia_finds_the_primitive_solution_only():
    # 59 = norm(5 + 2w) in disc -23, so 59^3 has a primitive and an
    # imprimitive representation; the step returns the primitive one from
    # either root
    m = 59**3
    sols = norm_equation_sweep(23, m)
    prim = [x for x in sols if not (x[0] % 59 == 0 and x[1] % 59 == 0)]
    imprim = [x for x in sols if x[0] % 59 == 0 and x[1] % 59 == 0]
    assert len(prim) == 1 and imprim
    assert cornacchia_4m(23, m, sqrt_mod_prime_power(-23, 59, 3)) == set(prim)


def test_cornacchia_on_large_squarefree_m_against_brute_force():
    # the square roots of -p mod m are joined by CRT over the primes of m;
    # at squarefree m every solution is primitive and found by one of them
    cases = ((7, 400000007), (7, 400000147), (23, 400000017), (23, 400000207), (31, 400000355), (31, 400000615))
    for p, m in cases:
        assert factor(m).is_squarefree() and len(factor(m).factors) >= 3
        roots, modulus = [0], 1
        for q, _ in factor(m).factors:
            u = modulus * pow(modulus, -1, q)  # 0 mod the primes so far, 1 mod q
            roots = [(x + (y - x) * u) % (modulus * q) for x in roots for y in sqrt_mod_prime_power(-p, q, 1)]
            modulus *= q
        want = set(norm_equation_sweep(p, m))
        assert want and cornacchia_4m(p, m, roots) == want, (p, m)


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(-24, 2) == 3
    assert valuation(7, 2) == 0
    with pytest.raises(ValidationError):
        valuation(0, 2)
