"""Exact integer primitives: Jacobi symbols, primality, factoring, square
roots modulo prime powers and the Cornacchia step for s^2 + p*t^2 = 4m."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import FactorizationIncomplete, InternalCheckError, ValidationError

# Deterministic Miller-Rabin base set: correct for all n below
# psi_12 = 318665857834031151167461 (Sorenson-Webster), in particular for
# all n < 2^64.  Beyond 2^64 the next 12 primes are added.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# Pollard rho steps `factor` allows each composite it splits, read at call time
RHO_BUDGET = 10**6


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValidationError(f"jacobi requires odd positive n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Primality test, deterministic for |n| < 2^64 (fixed Miller-Rabin bases).

    Beyond 2^64 the fixed bases are supplemented with the 12 MR_EXTRA_BASES;
    still deterministic output, probabilistically correct.
    """
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    if n < 101 * 101:  # a composite below 101^2 has a prime factor <= 97
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES + MR_EXTRA_BASES if n >= 1 << 64 else MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Complete factorization: n = sign * prod(prime^exp)."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def recompose(self) -> int:
        out = self.sign
        for q, e in self.factors:
            out *= q**e
        return out

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factors)


def _pollard_rho(n: int, budget: int) -> Optional[int]:
    # Floyd cycle finding with deterministic polynomial constants
    if n % 2 == 0:
        return 2
    spent = 0
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            spent += 1
            if spent > budget:
                return None
        if d != n:
            return d
    return None


def factor(n: int) -> Factorization:
    """Factor a nonzero integer by trial division then Pollard rho.

    Raises FactorizationIncomplete when a split runs out of its
    `RHO_BUDGET` rho steps; never returns a wrong factorization.
    """
    if n == 0:
        raise ValidationError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    found: dict[int, int] = {}
    for sp in _SMALL_PRIMES:
        while m % sp == 0:
            found[sp] = found.get(sp, 0) + 1
            m //= sp
    # trial division a bit beyond the hard-coded primes
    d = _SMALL_PRIMES[-1] + 2
    while d * d <= m and d < 10**4:
        while m % d == 0:
            found[d] = found.get(d, 0) + 1
            m //= d
        d += 2
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        split = _pollard_rho(m, RHO_BUDGET)
        if split is None or split == m:
            raise FactorizationIncomplete(
                f"factorization incomplete for {n}: rho budget {RHO_BUDGET} exhausted"
            )
        stack += [split, m // split]
    factors = tuple(sorted(found.items()))
    result = Factorization(sign=sign, factors=factors)
    if result.recompose() != n:
        raise InternalCheckError(f"the factors {factors} of {n} multiply to {result.recompose()}")
    return result


def valuation(n: int, q: int) -> int:
    """Largest e with q^e dividing n; n must be nonzero."""
    if n == 0:
        raise ValidationError("valuation of 0 is undefined")
    n = abs(n)
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def smallest_prime_factors(n: int) -> list[int]:
    """spf[m], the smallest prime factor of m, for 2 <= m <= n (spf[0] = 0, spf[1] = 1)."""
    spf = list(range(n + 1))
    if n < 4:
        return spf
    root = math.isqrt(n)
    # the primes up to sqrt(n), largest first, so the smallest prime dividing m writes spf[m] last
    if root <= _SMALL_PRIMES[-1]:
        primes = _SMALL_PRIMES[bisect_right(_SMALL_PRIMES, root) - 1 :: -1]
    else:
        small = smallest_prime_factors(root)
        primes = [ell for ell in range(root, 1, -1) if small[ell] == ell]
    for ell in primes:
        spf[ell * ell :: ell] = [ell] * ((n - ell * ell) // ell + 1)
    return spf


def _tonelli_shanks(a: int, q: int) -> int:
    """A square root of a quadratic residue a mod a prime q = 1 (mod 4)."""
    # write q-1 = d * 2^s with d odd
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while jacobi(z, q) != -1:
        z += 1
    c = pow(z, d, q)
    x = pow(a, (d + 1) // 2, q)
    t = pow(a, d, q)
    m = s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        t = t * b % q * b % q
        c = b * b % q
        m = i
    return x


def hensel_lift(r: int, a: int, q: int, e: int) -> int:
    """The root = r (mod q) of x^2 = a (mod q^e), in [0, q^e), for an odd prime
    q not dividing a and a root r of x^2 = a (mod q).  Newton steps
    x -> x - (x^2 - a)/(2x) double the precision each time."""
    if (r * r - a) % q:
        raise InternalCheckError(f"{r} is not a square root of {a} mod {q}")
    k, qk = 1, q
    while k < e:
        k = min(2 * k, e)
        qk = q**k
        r = (r - (r * r - a) * pow(2 * r, -1, qk)) % qk
    r %= qk
    if (r * r - a) % qk:
        raise InternalCheckError(f"{r} is not a square root of {a} mod {q}^{e}")
    return r


def sqrt_mod_prime_power(a: int, q: int, e: int) -> list[int]:
    """All x in [0, q^e) with x^2 = a (mod q^e), sorted, for a prime q and e >= 1.

    When q does not divide 2a, the two roots are the Hensel lifts of the
    root mod q, found by the q = 3 (mod 4) shortcut or by Tonelli-Shanks
    (Cohen, GTM 138, section 1.5) and checked; otherwise the roots are
    lifted one power of q at a time by trying the q lifts of each, from
    the root a mod q (x^2 = x mod 2)."""
    qe = q**e
    if q != 2 and a % q:
        aq = a % q
        if jacobi(aq, q) != 1:
            return []
        r = pow(aq, (q + 1) // 4, q) if q % 4 == 3 else _tonelli_shanks(aq, q)
        if r * r % q != aq:
            raise InternalCheckError(f"{r} is not a square root of {aq} mod {q}")
        x = hensel_lift(r, a, q, e) if e > 1 else r
        return sorted((x, qe - x))
    roots, qk = [a % q], q
    while roots and qk < qe:
        qk *= q
        roots = [x for r in roots for x in range(r, qk, qk // q) if (x * x - a) % qk == 0]
    return sorted(roots)


def cornacchia(p: int, r: int, m: int) -> Optional[tuple[int, int]]:
    """The solution (s, t), s and t >= 0, of s^2 + p*t^2 = 4m that belongs to
    the square root r of -p mod m, or None when that root has none.

    For p = 3 (mod 4), p > 0, and an odd m > 1 coprime to p.  One modified
    Cornacchia step (Cohen, GTM 138, Alg. 1.5.3): the root of the right
    parity, then Euclid on (2m, root) down to the first remainder <= 2 sqrt(m).
    """
    if p < 3 or p % 4 != 3 or m < 3 or math.gcd(m, 2 * p) != 1 or (r * r + p) % m:
        raise ValidationError(
            f"cornacchia needs p = 3 mod 4, an odd m > 1 coprime to p and r^2 = -p mod m, "
            f"got p={p}, r={r}, m={m}"
        )
    a, b, bound = 2 * m, r % m, math.isqrt(4 * m)
    if b % 2 == 0:
        b = m - b  # the odd root, so b^2 = -p (mod 4m)
    while b > bound:
        a, b = b, a % b
    rem = 4 * m - b * b
    t = math.isqrt(rem // p)
    return (b, t) if p * t * t == rem else None
