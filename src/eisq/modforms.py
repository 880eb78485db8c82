"""Truncated q-expansions of weight-2 forms: divisor sums, the Eisenstein
series killed by the Eisenstein ideal at level p^2, and Hecke operators."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import is_prime
from .errors import PrecisionError, ValidationError

# an operator output keeps prec // ell coefficients; below this many the
# comparison is considered uninformative
MIN_RETAINED = 15


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


def sigma(m: int) -> int:
    """Sum of the positive divisors of m."""
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
    """Sum of the divisors of m coprime to p."""
    if m < 1:
        raise ValidationError(f"sigma_prime needs m >= 1, got {m}")
    while m % p == 0:
        m //= p
    return sigma(m)


def eisenstein_e(p: int, prec: int) -> QSeries:
    """e = (1-p) - 24 * sum sigma'(m) q^m, the weight-2 Eisenstein series of level p."""
    coeffs = [1 - p] + [-24 * sigma_prime(m, p) for m in range(1, prec + 1)]
    return QSeries(p, tuple(coeffs))


def delta_series(p: int, prec: int) -> QSeries:
    """The level-p^2 Eisenstein eigenseries: a_m = sigma(m) for p coprime to m, else 0.

    Construction is cross-checked coefficientwise against (e(pz) - e(z))/24.
    """
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    coeffs = [0] + [0 if m % p == 0 else sigma(m) for m in range(1, prec + 1)]
    e = eisenstein_e(p, prec)
    for m in range(prec + 1):
        lifted = e.coeffs[m // p] if m % p == 0 else 0
        diff = lifted - e.coeffs[m]
        assert diff % 24 == 0 and diff // 24 == coeffs[m], f"delta identity fails at {m}"
    return QSeries(p * p, tuple(coeffs))


def hecke_t(f: QSeries, ell: int) -> QSeries:
    """T_ell on a weight-2 expansion for ell not dividing the level:
    b_m = a_{ell*m} + ell * a_{m/ell} (second term only when ell | m)."""
    if not is_prime(ell):
        raise ValidationError(f"Hecke index must be prime, got {ell}")
    if f.level % ell == 0:
        raise ValidationError(f"T_{ell} needs ell coprime to the level {f.level}")
    out_prec = f.prec // ell
    coeffs = []
    for m in range(out_prec + 1):
        b = f.coeffs[ell * m]
        if m % ell == 0:
            b += ell * f.coeffs[m // ell]
        coeffs.append(b)
    return QSeries(f.level, tuple(coeffs))


def hecke_u(f: QSeries, ell: int) -> QSeries:
    """U_ell on an expansion for ell dividing the level: b_m = a_{ell*m}."""
    if not is_prime(ell):
        raise ValidationError(f"Hecke index must be prime, got {ell}")
    if f.level % ell != 0:
        raise ValidationError(f"U_{ell} needs ell dividing the level {f.level}")
    out_prec = f.prec // ell
    return QSeries(f.level, tuple(f.coeffs[ell * m] for m in range(out_prec + 1)))


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
        if ell == p:
            image = hecke_u(delta, p)
            idx = None if image.is_zero() else next(i for i, a in enumerate(image.coeffs) if a)
        else:
            image = hecke_t(delta, ell)
            idx = image.agrees_with(delta.scale(1 + ell))
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
