"""Truncated q-expansions of weight-2 forms: divisor sums, the Eisenstein
series killed by the Eisenstein ideal at level p^2, and Hecke operators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub
from typing import Optional, Sequence

from .arith import is_prime, smallest_prime_factors
from .errors import InternalCheckError, PrecisionError, ResourceCapError, ValidationError

# an operator output keeps prec // ell coefficients; below this many the
# comparison is considered uninformative
MIN_RETAINED = 15
# `eisq eigencheck --p 97` as a whole process takes 0.33-0.38 s and 29 MB
# peak RSS at prec 10^5, 3.2-4.1 s and 139 MB at 10^6, the two sigma
# tables kept included (2-core VM); a larger prec raises ResourceCapError
MAX_EIGEN_PREC = 10**6


@dataclass(frozen=True)
class QSeries:
    """Integer q-expansion a_0 + a_1 q + ... + a_prec q^prec at a fixed level."""

    level: int
    coeffs: tuple[int, ...]


def _first_difference(a: Sequence[int], b: Sequence[int]) -> Optional[int]:
    """Index of the first differing entry over the common prefix of a and b,
    or None; equal sequences take one whole-sequence comparison."""
    if a == b:
        return None
    return next((m for m, (x, y) in enumerate(zip(a, b)) if x != y), None)


def _first_scaled_difference(a: Sequence[int], b: Sequence[int], c: int) -> Optional[int]:
    """Index of the first m < len(a) with a[m] != c * b[m], or None, taken
    4096 entries at a time, so that c * b is never built whole."""
    for lo in range(0, len(a), 4096):
        hi = min(lo + 4096, len(a))
        idx = _first_difference(a[lo:hi], tuple(map(mul, b[lo:hi], repeat(c))))
        if idx is not None:
            return lo + idx
    return None


def sigma_table(n: int) -> list[int]:
    """[sigma(0) = 0, sigma(1), ..., sigma(n)], a fresh list the caller may
    change: a copy of the memo's table."""
    return list(_sigma_table(n))


@lru_cache(maxsize=1)
def _sigma_table(n: int) -> tuple[int, ...]:
    """The sigma table from a smallest-prime-factor sieve: sigma(l*q) =
    (l+1) sigma(q) - l sigma(q/l), the last term only when l | q.  It does
    not depend on p, so one process keeps the last one built, and a sweep
    over p at one precision sieves once."""
    table = [0, 1][: n + 1]
    append = table.append
    for m, ell in enumerate(smallest_prime_factors(n)[2:], 2):
        q = m // ell
        if q % ell:
            append((ell + 1) * table[q])
        else:
            append((ell + 1) * table[q] - ell * table[q // ell])
    return tuple(table)


def sigma_prime_table(n: int, p: int) -> list[int]:
    """[0, sigma'(1), ..., sigma'(n)], the divisor sums over divisors coprime
    to p: a copy of the divisor-pair table of sigma, corrected only at the
    multiples of p by sigma'(m) = sigma(m) - p sigma(m/p), as the divisors
    of m that p divides are p times the divisors of m/p."""
    pairs = _pair_sigma_table(n)
    table = list(pairs)
    table[p::p] = map(sub, table[p::p], map(mul, pairs[1 : n // p + 1], repeat(p)))
    return table


@lru_cache(maxsize=1)
def _pair_sigma_table(n: int) -> tuple[int, ...]:
    """The sigma table from the divisor pairs m = d*k with d <= k: for each
    d <= sqrt(n) one strided slice adds d + k to every m = d*k with k >= d,
    and m = d^2 gives back the d counted twice.  Like _sigma_table it does
    not depend on p, and one process keeps the last one built."""
    table = [0] * (n + 1)
    for d in range(1, math.isqrt(max(n, 0)) + 1):
        table[d * d :: d] = map(add, table[d * d :: d], range(2 * d, d + n // d + 1))
        table[d * d] -= d
    return tuple(table)


def delta_series(p: int, prec: int) -> QSeries:
    """The level-p^2 Eisenstein eigenseries: a_m = sigma(m) for p coprime to m, else 0.

    With e = (1-p) - 24 sum sigma'(m) q^m the weight-2 Eisenstein series of
    level p, each series is checked by e(pz) = e(z) + 24 delta.  Index by
    index that holds exactly when sigma'(m) = sigma(m) for every m that p
    does not divide and sigma'(p*j) = sigma'(j) for every j <= prec/p, so
    it is checked as those two list comparisons, unscaled.  The two sides
    come from different sieves: delta from the multiplicative sieve of
    sigma_table, sigma' from the divisor pairs of sigma_prime_table.  As
    sigma'(p*j) = sigma(p*j) - p sigma(j) there, the second comparison
    checks that the pair table obeys sigma's recurrence at p, which its
    sieve does not build in.  A mismatch raises InternalCheckError naming
    the first bad index.

    Comparing the unscaled sums, rather than e(pz) against e(z) + 24 delta,
    builds no scaled series: at p = 97 a fresh eigencheck's peak RSS went
    28-29 -> 26 MB at prec 10^5 and 138-141 -> 122-123 MB at 10^6, and its
    time stayed within the host's spread (0.13-0.24 -> 0.13-0.20 s and
    2.5-3.7 -> 2.5-3.9 s, 2-core Xeon VM, alternated runs).
    """
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    n = max(prec, 0)
    coeffs = sigma_table(n)
    coeffs[::p] = repeat(0, n // p + 1)
    sp = sigma_prime_table(n, p)
    j = _first_difference(sp[::p], sp[: n // p + 1])
    sp[::p] = repeat(0, n // p + 1)
    m = _first_difference(sp, coeffs)
    bad = [i for i in (m, j if j is None else p * j) if i is not None]
    if bad:
        raise InternalCheckError(f"delta identity fails at {min(bad)} for p = {p}")
    return QSeries(p * p, tuple(coeffs))


def hecke_t(f: QSeries, ell: int) -> QSeries:
    """T_ell on a weight-2 expansion for ell not dividing the level:
    b_m = a_{ell*m} + ell * a_{m/ell} (second term only when ell | m)."""
    if not is_prime(ell):
        raise ValidationError(f"Hecke index must be prime, got {ell}")
    if f.level % ell == 0:
        raise ValidationError(f"T_{ell} needs ell coprime to the level {f.level}")
    coeffs = list(f.coeffs[::ell])
    coeffs[::ell] = map(add, coeffs[::ell], map(mul, f.coeffs, repeat(ell)))
    return QSeries(f.level, tuple(coeffs))


def hecke_u(f: QSeries, ell: int) -> QSeries:
    """U_ell on an expansion for ell dividing the level: b_m = a_{ell*m}."""
    if not is_prime(ell):
        raise ValidationError(f"Hecke index must be prime, got {ell}")
    if f.level % ell != 0:
        raise ValidationError(f"U_{ell} needs ell dividing the level {f.level}")
    return QSeries(f.level, f.coeffs[::ell])


@dataclass(frozen=True)
class EigenResult:
    ell: int
    operator: str  # "T" or "U"
    status: str  # "pass", "fail", "insufficient_precision"
    retained: int
    first_discrepancy: Optional[int] = None


@dataclass(frozen=True)
class EigenReport:
    p: int
    prec: int
    results: tuple[EigenResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results if r.status != "insufficient_precision") and any(
            r.status == "pass" for r in self.results
        )

    @property
    def insufficient(self) -> tuple[int, ...]:
        return tuple(r.ell for r in self.results if r.status == "insufficient_precision")


def eisenstein_eigencheck(p: int, prec: int, primes: Optional[Sequence[int]] = None) -> EigenReport:
    """Check T_ell delta = (1+ell) delta for ell != p and U_p delta = 0.

    U_p is part of the Eisenstein ideal check, so it is always included.
    Operators shrink precision by a factor ell; an ell retaining fewer than
    MIN_RETAINED coefficients is reported as insufficient rather than
    asserted.  Raises when no requested operator is checkable at all.
    """
    if prec > MAX_EIGEN_PREC:
        raise ResourceCapError(f"eigencheck precision is capped at {MAX_EIGEN_PREC}, got {prec}")
    delta = delta_series(p, prec)
    if primes is None:
        primes = [ell for ell in (2, 3, 5, 7, 11, 13) if ell != p]
    results = []
    for ell in sorted(set(primes) | {p}):
        if not is_prime(ell):
            raise ValidationError(f"{ell} is not prime")
        op = "U" if ell == p else "T"
        retained = prec // ell
        if retained < MIN_RETAINED:
            results.append(EigenResult(ell, op, "insufficient_precision", retained))
            continue
        # the eigenvalue is 1 + ell for T_ell and 0 for U_p
        image = (hecke_u(delta, p) if ell == p else hecke_t(delta, ell)).coeffs
        idx = _first_scaled_difference(image, delta.coeffs, 0 if ell == p else 1 + ell)
        results.append(EigenResult(ell, op, "pass" if idx is None else "fail", retained, idx))
    report = EigenReport(p, prec, tuple(results))
    if all(r.status == "insufficient_precision" for r in report.results):
        raise PrecisionError(
            f"precision {prec} leaves no operator with {MIN_RETAINED} coefficients"
        )
    return report


def delta_cusp_constants(p: int) -> tuple[Fraction, Fraction]:
    """Leading expansion constants of the eigenseries at the two cusp types:
    (p^2-1)/(24p) at the width-one cusps and (p^2-1)(1-p)/(24p) at zero."""
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    n24 = Fraction(p * p - 1, 24 * p)
    return (n24, n24 * (1 - p))
