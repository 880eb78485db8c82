"""Eta-products on X0(N) for N = p or p^2: rationality conditions, divisors
at cusps, and orders of rational cuspidal divisor classes via exact integer
lattice arithmetic (Smith normal form).  Each public function parses its
level once; private helpers take its divisors [1, p] or [1, p, p^2].  The
eta-divisor lattice of each level is built once per process and kept in a
bounded memo (`LATTICE_MEMO`)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .arith import is_prime
from .errors import InternalCheckError, ValidationError

# An eta-product is encoded by its exponent map {divisor d of N: r_d}.
EtaExponents = Mapping[int, int]

# bounds the level memo: the lattice generators of the last 1024 levels
# built in this process, about 0.7 MB when full of levels p^2
LATTICE_MEMO = 1024


def level_prime(n: int) -> tuple[int, int]:
    """(p, k) with n = p^k, k in {1, 2}: the one place that decides which
    of the two supported levels n is, by one primality test."""
    root = math.isqrt(max(n, 0))
    p0, k = (root, 2) if root * root == n else (n, 1)
    if is_prime(p0):
        return p0, k
    raise ValidationError(f"supported levels are p and p^2, got {n}")


def divisors(n: int) -> list[int]:
    """1, p and, at level p^2, p^2: the divisors of a level n = p^k."""
    p0, k = level_prime(n)
    return [p0**j for j in range(k + 1)]


def _check_level_prime(p: int) -> None:
    """The one test of a prime p >= 5, the prime of a level p or p^2."""
    if p < 5 or not is_prime(p):
        raise ValidationError(f"need a prime p >= 5, got {p}")


def _orbit_sizes(divs: list[int]) -> list[int]:
    # phi(gcd(d, N/d)) cusps of each level d: p - 1 at d = p on X0(p^2), else 1
    return [divs[1] - 1 if len(divs) == 3 and d == divs[1] else 1 for d in divs]


@dataclass(frozen=True)
class LigozatReport:
    sum_zero: bool  # sum of exponents vanishes (weight 0)
    weighted_mod24: bool  # sum d*r_d = 0 mod 24
    dual_mod24: bool  # sum (N/d)*r_d = 0 mod 24
    square_product: bool  # prod d^r_d is a rational square

    @property
    def ok(self) -> bool:
        return self.sum_zero and self.weighted_mod24 and self.dual_mod24 and self.square_product


def _check_divisors(divs: list[int], ds: Iterable[int]) -> None:
    for d in ds:
        if d not in divs:
            raise ValidationError(f"{d} does not divide the level {divs[-1]}")


def _validated_exponents(divs: list[int], r: EtaExponents) -> dict[int, int]:
    _check_divisors(divs, r)
    return {d: int(r.get(d, 0)) for d in divs}


def _prime_exponent(divs: list[int], r: EtaExponents) -> int:
    return sum(j * r.get(d, 0) for j, d in enumerate(divs))  # v_p(p^j) = j


def prime_exponent(n: int, r: EtaExponents) -> int:
    """e = sum_d r_d * v_p(d) at level N = p or p^2, so prod_d d^{r_d} = p^e.

    Over a field in which p splits, the divisor ideals of the eta-product
    are powers of one prime above p, and e is the exponent of their product.
    """
    divs = divisors(n)
    return _prime_exponent(divs, _validated_exponents(divs, r))


def _ligozat(divs: list[int], rr: EtaExponents) -> LigozatReport:
    n = divs[-1]
    s1 = sum(rr.values()) == 0
    s2 = sum(d * rd for d, rd in rr.items()) % 24 == 0
    s3 = sum((n // d) * rd for d, rd in rr.items()) % 24 == 0
    # prod d^{r_d} is a square iff every prime of N appears to an even power
    s4 = _prime_exponent(divs, rr) % 2 == 0
    return LigozatReport(s1, s2, s3, s4)


def ligozat_check(n: int, r: EtaExponents) -> LigozatReport:
    """The four rationality conditions for prod_d eta(d z)^{r_d} on X0(N)."""
    divs = divisors(n)
    return _ligozat(divs, _validated_exponents(divs, r))


@dataclass(frozen=True)
class CuspDivisor:
    """A divisor supported on cusps, constant on Galois orbits.

    `coeffs[d]` is the multiplicity of each single cusp of level d; the
    orbit sum D_d corresponds to coeffs with a bare 1 at level d.  Only
    `from_map` checks the level; the methods read its divisors off it.
    """

    level: int
    coeffs: tuple[Fraction, ...]  # indexed like divisors(level)

    @staticmethod
    def from_map(level: int, coeffs: Mapping[int, int | Fraction]) -> "CuspDivisor":
        divs = divisors(level)
        _check_divisors(divs, coeffs)
        return CuspDivisor(level, tuple(Fraction(coeffs.get(d, 0)) for d in divs))

    def divisors(self) -> list[int]:
        """The divisors of the level, read off the coefficient count."""
        p0 = self.level if len(self.coeffs) == 2 else math.isqrt(self.level)
        return [p0**j for j in range(len(self.coeffs))]

    def coeff(self, d: int) -> Fraction:
        divs = self.divisors()
        _check_divisors(divs, [d])
        return self.coeffs[divs.index(d)]

    def degree(self) -> Fraction:
        return sum(c * s for c, s in zip(self.coeffs, _orbit_sizes(self.divisors())))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def int_vector(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValidationError(f"divisor is not integral: {self}")
        return tuple(int(c) for c in self.coeffs)

    def scale(self, k: int) -> "CuspDivisor":
        return CuspDivisor(self.level, tuple(c * k for c in self.coeffs))

    def __repr__(self) -> str:
        parts = [f"{c}*[{d}]" for d, c in zip(self.divisors(), self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def eta_divisor(n: int, r: EtaExponents) -> CuspDivisor:
    """Divisor of prod_d eta(d z)^{r_d} on X0(N), one entry per cusp orbit.

    Order at a cusp of level c: the integer sum_d r_d*gcd(c,d)^2*(N/d) over 24*gcd(c^2, N).
    Entries are exact rationals; they are integers whenever the product is
    an actual rational function (Ligozat conditions).
    """
    divs = divisors(n)
    return _eta_divisor(divs, _validated_exponents(divs, r))


def _eta_divisor(divs: Sequence[int], r: EtaExponents) -> CuspDivisor:
    n = divs[-1]
    coeffs = tuple(
        Fraction(sum(rd * math.gcd(c, d) ** 2 * (n // d) for d, rd in r.items()), 24 * math.gcd(c * c, n))
        for c in divs
    )
    out = CuspDivisor(n, coeffs)
    # valence formula: the degree is (sum r_d / 2) [SL2(Z) : Gamma0(N)] / 12,
    # so it vanishes exactly at weight 0
    if sum(r.values()) == 0 and out.degree() != 0:
        raise InternalCheckError(
            f"eta divisor of weight 0 has degree {out.degree()} at level {n}: {dict(r)}"
        )
    return out


# --- integer lattices ------------------------------------------------------


def _snf_with_left(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix: returns (S, U) with S = U*A*V.

    Only the left transform U is tracked; column operations change V only,
    which order computations never need.
    """
    a = [list(map(int, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    k = 0
    while k < min(nrows, ncols):
        # the first nonzero entry of least size in the lower-right block
        pivots = [(abs(a[i][j]), i, j) for i in range(k, nrows) for j in range(k, ncols) if a[i][j]]
        if not pivots:
            break
        _, i0, j0 = min(pivots)
        a[k], a[i0] = a[i0], a[k]
        u[k], u[i0] = u[i0], u[k]
        for row in a:
            row[k], row[j0] = row[j0], row[k]
        done = False
        while not done:
            done = True
            for i in range(k + 1, nrows):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        u[k], u[i] = u[i], u[k]
                        done = False
            for j in range(k + 1, ncols):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    for row in a:
                        row[j] -= q * row[k]
                    if a[k][j]:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        done = False
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    return a, u


def lattice_order(generators: Sequence[Sequence[int]], target: Sequence[int]) -> int:
    """Least n >= 1 with n*target inside the row lattice of `generators`.

    Computed via Smith normal form of the transposed generator matrix.
    Raises when no multiple of the target lies in the lattice.
    """
    if not generators:
        raise ValidationError("empty generating set")
    ncoords = len(generators[0])
    s, u = _snf_with_left([[g[i] for g in generators] for i in range(ncoords)])
    y = [sum(u[i][j] * target[j] for j in range(ncoords)) for i in range(ncoords)]
    n = 1
    for i in range(ncoords):
        d = s[i][i] if i < len(generators) else 0
        if d:
            n = math.lcm(n, d // math.gcd(d, y[i] % d))
        elif y[i]:
            raise ValidationError("target is not in the span of the lattice")
    return n


def invariant_factors(generators: Sequence[Sequence[int]], rank: int) -> list[int]:
    """Invariant factors of Z^rank modulo the row lattice of `generators`.

    Generators are coordinate vectors in Z^rank; entries 1 are dropped.
    Raises when the quotient is infinite.
    """
    colmat = [[g[i] for g in generators] for i in range(rank)]
    s, _ = _snf_with_left(colmat)
    diag = [s[i][i] if i < len(generators) else 0 for i in range(rank)]
    if 0 in diag:
        raise ValidationError("lattice does not have full rank")
    # normalize to a divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = math.gcd(diag[i], diag[j]), math.lcm(diag[i], diag[j])
    return [d for d in sorted(diag) if d != 1]


# --- the eta lattice and cuspidal orders -----------------------------------


def _eta_exponent_lattice(divs: Sequence[int]) -> list[dict[int, int]]:
    """A basis of the lattice of Ligozat-valid exponent vectors at the level
    with divisors `divs`.

    The lattice is the kernel of Z^tau -> Z + Z/24 + Z/24 + Z/2 given by the
    four forms of `ligozat_check`, i.e. the projection onto the exponent
    coordinates of the integer kernel of A = [forms | -diag(24, 24, 2)]
    (Cohen, GTM 138, section 2.4).  With S = U*A^T*V in Smith form, the rows
    of U opposite the zero rows of S span that kernel.  The projection is
    injective (zero exponents force zero slack), so tau - 1 vectors come out.
    """
    n, tau = divs[-1], len(divs)
    forms = ([1] * tau, divs, [n // d for d in divs], list(range(tau)))  # v_p(p^j) = j
    # A^T: a row per exponent, then a row per slack variable of forms 1-3
    rows = [[form[i] for form in forms] for i in range(tau)]
    rows += [[-m if j == i else 0 for j in range(4)] for i, m in ((1, 24), (2, 24), (3, 2))]
    s, u = _snf_with_left(rows)
    kernel = [u[i][:tau] for i, row in enumerate(s) if not any(row)]
    if len(kernel) != tau - 1:
        raise InternalCheckError(f"Ligozat lattice at level {n} has rank {len(kernel)}, not {tau - 1}")
    basis = [{d: v for d, v in zip(divs, vec) if v} for vec in kernel]
    for r in basis:
        if not _ligozat(divs, r).ok:
            raise InternalCheckError(f"Ligozat basis vector {r} at level {n} is not rational")
    return basis


@functools.lru_cache(maxsize=LATTICE_MEMO)
def _lattice_generators(divs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The integer divisors of the Ligozat basis at the level with divisors
    `divs`: the generators of the eta-divisor lattice, built once per level
    per process.  The rank, Ligozat and degree-0 checks run on every build."""
    return tuple(_eta_divisor(divs, r).int_vector() for r in _eta_exponent_lattice(divs))


def cuspidal_class_order(n: int, div: CuspDivisor) -> int:
    """Order of a rational degree-0 cuspidal divisor class in J0(N).

    The class group of rational cuspidal divisors is cut out by divisors of
    eta-products; the order is the least k with k*div in that lattice,
    via Smith normal form.  The lattice generators of a level are built
    once per process (`_lattice_generators`); on every call a recomputation
    under the reversed generating set guards basis independence.
    """
    divs = divisors(n)
    if div.level != n or len(div.coeffs) != len(divs):
        raise ValidationError("divisor level mismatch")
    if div.degree() != 0:
        raise ValidationError(f"divisor has degree {div.degree()}, not 0")
    target = div.int_vector()
    gens = _lattice_generators(tuple(divs))
    order = lattice_order(gens, target)
    again = lattice_order(gens[::-1], target)
    if again != order:
        raise InternalCheckError(f"order is basis-dependent: {order} vs {again}")
    return order


@dataclass(frozen=True)
class CuspidalGroupReport:
    p: int
    invariants: tuple[int, ...]  # computed structure of the rational cuspidal group
    closed_form_12: tuple[int, int]  # ((p-1)/(p-1,12), (p+1)/(p+1,12)), group a^2 * b
    closed_form_24: tuple[int, int]  # ((p-1)/(p-1,24), (p+1)/(p+1,24))
    matches_12: bool
    matches_24: bool

    @property
    def order(self) -> int:
        return math.prod(self.invariants) if self.invariants else 1


def cuspidal_group_invariants(p: int) -> CuspidalGroupReport:
    """Structure of the rational cuspidal divisor class group of X0(p^2).

    Computes the invariant factors by SNF of the eta-divisor lattice inside
    the rank-2 lattice of rational degree-0 cuspidal divisors and reports
    them next to the two closed-form candidates (which disagree for some p;
    the computation arbitrates).
    """
    _check_level_prime(p)
    # coordinates on degree-0 rational divisors: (m_1, m_p), with the
    # level-p^2 coefficient determined by degree 0 (which `_eta_divisor` checks)
    gens = [g[:2] for g in _lattice_generators((1, p, p * p))]
    inv = tuple(invariant_factors(gens, 2))
    (a12, b12), (a24, b24) = [((p - 1) // math.gcd(p - 1, m), (p + 1) // math.gcd(p + 1, m)) for m in (12, 24)]
    order = math.prod(inv)
    return CuspidalGroupReport(
        p=p,
        invariants=inv,
        closed_form_12=(a12, b12),
        closed_form_24=(a24, b24),
        matches_12=(order == a12 * a12 * b12),
        matches_24=(order == a24 * a24 * b24),
    )


# --- the two special eta-products ------------------------------------------


def special_function(n: int) -> dict[int, int]:
    """Exponents of the canonical eta-product of level n = p or p^2, whose
    divisor generates the relevant cuspidal class: (24/m, -24/m) at level p
    with m = gcd(p-1, 12), and (-1, p+1, -p) at level p^2.  `is_special`
    checks them against their divisor, which the caller computes once."""
    return _canonical_eta(divisors(n))


def is_special(n: int, r: EtaExponents, image: CuspDivisor) -> bool:
    """Whether r is the canonical eta-product of level n (never below p = 5).

    `image` is the divisor of r, already computed by the caller; when r is
    canonical it must pass Ligozat and match its closed form, or this raises."""
    try:
        divs = divisors(n)
        canonical = _canonical_eta(divs)
    except ValidationError:
        return False
    if {d: v for d, v in r.items() if v} != canonical:
        return False
    _check_special(divs, canonical, image)
    return True


def _canonical_eta(divs: list[int]) -> dict[int, int]:
    n, p = divs[-1], divs[1]
    _check_level_prime(p)
    m = math.gcd(p - 1, 12)
    return {1: 24 // m, p: -24 // m} if n == p else {1: -1, p: p + 1, n: -p}


def _check_special(divs: list[int], r: EtaExponents, image: CuspDivisor) -> None:
    """Ligozat, and the divisor against its closed form: a([1] - [p]) with
    a = (p-1)/m at level p, a([p] - (p-1)[p^2]) with a = (p^2-1)/24 at p^2."""
    n, p = divs[-1], divs[1]
    a = (p - 1) // math.gcd(p - 1, 12) if n == p else (n - 1) // 24
    expected = CuspDivisor(n, tuple(map(Fraction, (a, -a) if n == p else (0, a, -a * (p - 1)))))
    if not _ligozat(divs, r).ok:
        raise InternalCheckError(f"special function fails rationality at level {n}")
    if image != expected:
        raise InternalCheckError(
            f"special function divisor mismatch at level {n}: {image} vs {expected}"
        )
