"""Truncated q-expansions of weight-2 forms: divisor sums, the Eisenstein
series killed by the Eisenstein ideal at level p^2, and Hecke operators."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import is_prime, smallest_prime_factors
from .errors import InternalCheckError, PrecisionError, ResourceCapError, ValidationError

# an operator output keeps prec // ell coefficients; below this many the
# comparison is considered uninformative
MIN_RETAINED = 15
# eisenstein_eigencheck takes 0.23 s and 30 MB peak at prec 10^5, 4.4 s and
# 158 MB at 10^6 (2-core Xeon VM); a larger prec raises ResourceCapError
MAX_EIGEN_PREC = 10**6


@dataclass(frozen=True)
class QSeries:
    """Integer q-expansion a_0 + a_1 q + ... + a_prec q^prec at a fixed level."""

    level: int
    coeffs: tuple[int, ...]

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> int:
        return self.coeffs[m]

    def _common(self, other: "QSeries") -> int:
        if self.level != other.level:
            raise ValidationError("level mismatch between series")
        return min(self.prec, other.prec)

    def __add__(self, other: "QSeries") -> "QSeries":
        n = self._common(other)
        return QSeries(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs[: n + 1])))

    def __sub__(self, other: "QSeries") -> "QSeries":
        n = self._common(other)
        return QSeries(self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs[: n + 1])))

    def scale(self, k: int) -> "QSeries":
        return QSeries(self.level, tuple(k * a for a in self.coeffs))

    def agrees_with(self, other: "QSeries") -> Optional[int]:
        """Index of the first differing coefficient over the common prefix, or None."""
        n = self._common(other)
        for m in range(n + 1):
            if self.coeffs[m] != other.coeffs[m]:
                return m
        return None

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


def sigma_table(n: int) -> list[int]:
    """[sigma(0) = 0, sigma(1), ..., sigma(n)] from a smallest-prime-factor
    sieve: sigma(l*q) = (l+1) sigma(q) - l sigma(q/l), the last term only
    when l | q."""
    spf = smallest_prime_factors(n)
    table = [0, 1][: n + 1] + [0] * (n - 1)
    for m in range(2, n + 1):
        ell = spf[m]
        q = m // ell
        table[m] = (ell + 1) * table[q] - (ell * table[q // ell] if q % ell == 0 else 0)
    return table


def sigma_prime_table(n: int, p: int) -> list[int]:
    """[0, sigma'(1), ..., sigma'(n)], the divisor sums over divisors coprime
    to p, by adding each such divisor to all of its multiples."""
    table = [0] * (n + 1)
    for d in range(1, n + 1):
        if d % p:
            for m in range(d, n + 1, d):
                table[m] += d
    return table


def eisenstein_e(p: int, prec: int) -> QSeries:
    """e = (1-p) - 24 * sum sigma'(m) q^m, the weight-2 Eisenstein series of level p."""
    coeffs = [1 - p] + [-24 * s for s in sigma_prime_table(prec, p)[1:]]
    return QSeries(p, tuple(coeffs))


def delta_series(p: int, prec: int) -> QSeries:
    """The level-p^2 Eisenstein eigenseries: a_m = sigma(m) for p coprime to m, else 0.

    Construction (sigma_table) is cross-checked coefficientwise against
    (e(pz) - e(z))/24, whose e is built from sigma_prime_table.
    """
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    coeffs = [0 if m % p == 0 else s for m, s in enumerate(sigma_table(max(prec, 0)))]
    e = eisenstein_e(p, prec).coeffs
    diff = [-a for a in e]
    for m in range(0, len(e), p):
        diff[m] += e[m // p]
    want = [24 * a for a in coeffs]
    if diff != want:
        bad = next(m for m in range(len(want)) if diff[m] != want[m])
        raise InternalCheckError(f"delta identity fails at {bad} for p = {p}")
    return QSeries(p * p, tuple(coeffs))


def hecke_t(f: QSeries, ell: int) -> QSeries:
    """T_ell on a weight-2 expansion for ell not dividing the level:
    b_m = a_{ell*m} + ell * a_{m/ell} (second term only when ell | m)."""
    if not is_prime(ell):
        raise ValidationError(f"Hecke index must be prime, got {ell}")
    if f.level % ell == 0:
        raise ValidationError(f"T_{ell} needs ell coprime to the level {f.level}")
    out_prec = f.prec // ell
    coeffs = list(f.coeffs[::ell])
    for j in range(out_prec // ell + 1):
        coeffs[ell * j] += ell * f.coeffs[j]
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
        image = hecke_u(delta, p) if ell == p else hecke_t(delta, ell)
        value = 0 if ell == p else 1 + ell
        idx = next((m for m, b in enumerate(image.coeffs) if b != value * delta.coeffs[m]), None)
        if idx is None:
            results.append(EigenResult(ell, op, "pass", retained))
        else:
            results.append(EigenResult(ell, op, "fail", retained, idx))
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
