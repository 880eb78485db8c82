"""Eta-products on X0(N) for N = p or p^2: rationality conditions, divisors
at cusps, and orders of rational cuspidal divisor classes via exact integer
lattice arithmetic (Smith normal form)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .arith import is_prime, valuation
from .errors import InternalCheckError, ValidationError

# An eta-product is encoded by its exponent map {divisor d of N: r_d}.
EtaExponents = Mapping[int, int]


def level_prime(n: int) -> tuple[int, int]:
    """(p, k) with n = p^k, k in {1, 2}: the one place that decides which
    of the two supported levels n is."""
    if is_prime(n):
        return n, 1
    root = math.isqrt(max(n, 0))
    if root * root == n and is_prime(root):
        return root, 2
    raise ValidationError(f"supported levels are p and p^2, got {n}")


def divisors(n: int) -> list[int]:
    """1, p and, at level p^2, p^2: the divisors of a level n = p^k."""
    p0, k = level_prime(n)
    return [p0**j for j in range(k + 1)]


@dataclass(frozen=True)
class CuspOrbit:
    """The Galois orbit of cusps x/d of a fixed level d."""

    level: int
    size: int  # phi(gcd(d, N/d)) cusps in the orbit
    width: int
    field_degree: int  # cusps are defined over Q(mu_m), m = gcd(d, N/d)


def cusp_orbits(n: int) -> list[CuspOrbit]:
    p0, k = level_prime(n)
    out = []
    for d in divisors(n):
        m = math.gcd(d, n // d)  # 1, or p0 for d = p0 at level p0^2
        phi = m - 1 if m > 1 else 1
        out.append(CuspOrbit(d, phi, n // math.gcd(d * d, n), m))
    # X0(p) has 2 cusps and X0(p^2) has p + 1
    assert sum(o.size for o in out) == (2 if k == 1 else p0 + 1)
    return out


@dataclass(frozen=True)
class LigozatReport:
    sum_zero: bool  # sum of exponents vanishes (weight 0)
    weighted_mod24: bool  # sum d*r_d = 0 mod 24
    dual_mod24: bool  # sum (N/d)*r_d = 0 mod 24
    square_product: bool  # prod d^r_d is a rational square

    @property
    def ok(self) -> bool:
        return (
            self.sum_zero
            and self.weighted_mod24
            and self.dual_mod24
            and self.square_product
        )


def _validated_exponents(n: int, r: EtaExponents) -> dict[int, int]:
    divs = divisors(n)
    out = {d: 0 for d in divs}
    for d, rd in r.items():
        if d not in out:
            raise ValidationError(f"{d} is not a divisor of {n}")
        out[d] = int(rd)
    return out


def prime_exponent(n: int, r: EtaExponents) -> int:
    """e = sum_d r_d * v_p(d) at level N = p or p^2, so prod_d d^{r_d} = p^e.

    Over a field in which p splits, the divisor ideals of the eta-product
    are powers of one prime above p, and e is the exponent of their product.
    """
    p0, _ = level_prime(n)
    e = 0
    for d, rd in r.items():
        if d < 1 or n % d:
            raise ValidationError(f"{d} does not divide the level {n}")
        e += rd * valuation(d, p0)
    return e


def ligozat_check(n: int, r: EtaExponents) -> LigozatReport:
    """The four rationality conditions for prod_d eta(d z)^{r_d} on X0(N)."""
    rr = _validated_exponents(n, r)
    s1 = sum(rr.values()) == 0
    s2 = sum(d * rd for d, rd in rr.items()) % 24 == 0
    s3 = sum((n // d) * rd for d, rd in rr.items()) % 24 == 0
    # prod d^{r_d} is a square iff every prime of N appears to an even power
    s4 = prime_exponent(n, rr) % 2 == 0
    return LigozatReport(s1, s2, s3, s4)


@dataclass(frozen=True)
class CuspDivisor:
    """A divisor supported on cusps, constant on Galois orbits.

    `coeffs[d]` is the multiplicity of each single cusp of level d; the
    orbit sum D_d corresponds to coeffs with a bare 1 at level d.
    """

    level: int
    coeffs: tuple[Fraction, ...]  # indexed like divisors(level)

    @staticmethod
    def from_map(level: int, coeffs: Mapping[int, int | Fraction]) -> "CuspDivisor":
        divs = divisors(level)
        vec = [Fraction(coeffs.get(d, 0)) for d in divs]
        return CuspDivisor(level, tuple(vec))

    def coeff(self, d: int) -> Fraction:
        return self.coeffs[divisors(self.level).index(d)]

    def degree(self) -> Fraction:
        sizes = [o.size for o in cusp_orbits(self.level)]
        return sum(c * s for c, s in zip(self.coeffs, sizes))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def int_vector(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValidationError(f"divisor is not integral: {self}")
        return tuple(int(c) for c in self.coeffs)

    def scale(self, k: int) -> "CuspDivisor":
        return CuspDivisor(self.level, tuple(c * k for c in self.coeffs))

    def __repr__(self) -> str:
        divs = divisors(self.level)
        parts = [f"{c}*[{d}]" for d, c in zip(divs, self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def eta_divisor(n: int, r: EtaExponents) -> CuspDivisor:
    """Divisor of prod_d eta(d z)^{r_d} on X0(N), one entry per cusp orbit.

    Order at a cusp of level c: (N / (24*gcd(c^2, N))) * sum_d r_d*gcd(c,d)^2/d.
    Entries are exact rationals; they are integers whenever the product is
    an actual rational function (Ligozat conditions).
    """
    rr = _validated_exponents(n, r)
    coeffs = []
    for c in divisors(n):
        total = sum(
            Fraction(rd * math.gcd(c, d) ** 2, d) for d, rd in rr.items()
        )
        coeffs.append(Fraction(n, 24 * math.gcd(c * c, n)) * total)
    out = CuspDivisor(n, tuple(coeffs))
    report = ligozat_check(n, rr)
    if report.sum_zero and report.weighted_mod24 and report.dual_mod24:
        assert out.degree() == 0
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
        # find a nonzero pivot in the lower-right block
        pivot = None
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != k:
            a[k], a[i0] = a[i0], a[k]
            u[k], u[i0] = u[i0], u[k]
        if j0 != k:
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
    gens = [list(g) for g in generators]
    if not gens:
        raise ValidationError("empty generating set")
    ncoords = len(gens[0])
    colmat = [[g[i] for g in gens] for i in range(ncoords)]
    s, u = _snf_with_left(colmat)
    y = [sum(u[i][j] * target[j] for j in range(ncoords)) for i in range(ncoords)]
    n = 1
    for i in range(ncoords):
        d = s[i][i] if i < len(gens) else 0
        if d == 0:
            if y[i]:
                raise ValidationError("target is not in the span of the lattice")
            continue
        g = math.gcd(d, y[i] % d)
        n = n * (d // g) // math.gcd(n, d // g)
    return n


def invariant_factors(generators: Sequence[Sequence[int]], rank: int) -> list[int]:
    """Invariant factors of Z^rank modulo the row lattice of `generators`.

    Generators are coordinate vectors in Z^rank; entries 1 are dropped.
    Raises when the quotient is infinite.
    """
    colmat = [[g[i] for g in generators] for i in range(rank)]
    s, _ = _snf_with_left(colmat)
    diag = []
    for i in range(rank):
        d = s[i][i] if i < len(generators) else 0
        if d == 0:
            raise ValidationError("lattice does not have full rank")
        diag.append(d)
    # normalize to a divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            lcm = diag[i] * diag[j] // g
            diag[i], diag[j] = g, lcm
    return [d for d in sorted(diag) if d != 1]


# --- the eta lattice and cuspidal orders -----------------------------------


def eta_exponent_lattice(n: int) -> list[dict[int, int]]:
    """A basis of the lattice of Ligozat-valid exponent vectors.

    The lattice is the kernel of Z^tau -> Z + Z/24 + Z/24 + Z/2 given by the
    four forms of `ligozat_check`, i.e. the projection onto the exponent
    coordinates of the integer kernel of A = [forms | -diag(24, 24, 2)]
    (Cohen, GTM 138, section 2.4).  With S = U*A^T*V in Smith form, the rows
    of U opposite the zero rows of S span that kernel.  The projection is
    injective (zero exponents force zero slack), so tau - 1 vectors come out.
    """
    divs = divisors(n)
    tau = len(divs)
    forms = ([1] * tau, divs, [n // d for d in divs], [prime_exponent(n, {d: 1}) for d in divs])
    # A^T: a row per exponent, then a row per slack variable of forms 1-3
    rows = [[form[i] for form in forms] for i in range(tau)]
    rows += [[-m if j == i else 0 for j in range(4)] for i, m in ((1, 24), (2, 24), (3, 2))]
    s, u = _snf_with_left(rows)
    kernel = [u[i][:tau] for i, row in enumerate(s) if not any(row)]
    if len(kernel) != tau - 1:
        raise InternalCheckError(f"Ligozat lattice at level {n} has rank {len(kernel)}, not {tau - 1}")
    basis = [{d: v for d, v in zip(divs, vec) if v} for vec in kernel]
    for r in basis:
        if not ligozat_check(n, r).ok:
            raise InternalCheckError(f"Ligozat basis vector {r} at level {n} is not rational")
    return basis


def cuspidal_class_order(n: int, div: CuspDivisor) -> int:
    """Order of a rational degree-0 cuspidal divisor class in J0(N).

    The class group of rational cuspidal divisors is cut out by divisors of
    eta-products; the order is the least k with k*div in that lattice,
    via Smith normal form.  A recomputation under a reversed generating
    set guards basis independence.
    """
    level_prime(n)
    if div.level != n:
        raise ValidationError("divisor level mismatch")
    if div.degree() != 0:
        raise ValidationError(f"divisor has degree {div.degree()}, not 0")
    target = div.int_vector()
    gens = []
    for r in eta_exponent_lattice(n):
        image = eta_divisor(n, r)
        gens.append(image.int_vector())
    order = lattice_order(gens, target)
    again = lattice_order(list(reversed(gens)), target)
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
    if not is_prime(p) or p < 5:
        raise ValidationError(f"need a prime p >= 5, got {p}")
    n = p * p
    divs = divisors(n)
    sizes = [o.size for o in cusp_orbits(n)]
    assert sizes == [1, p - 1, 1]

    # coordinates on degree-0 rational divisors: (m_1, m_p), with the
    # level-p^2 coefficient determined by degree 0
    def project(vec: tuple[int, ...]) -> tuple[int, int]:
        assert vec[0] * 1 + vec[1] * (p - 1) + vec[2] * 1 == 0
        return (vec[0], vec[1])

    gens = [project(eta_divisor(n, r).int_vector()) for r in eta_exponent_lattice(n)]
    inv = tuple(invariant_factors(gens, 2))
    a12 = (p - 1) // math.gcd(p - 1, 12)
    b12 = (p + 1) // math.gcd(p + 1, 12)
    a24 = (p - 1) // math.gcd(p - 1, 24)
    b24 = (p + 1) // math.gcd(p + 1, 24)
    order = math.prod(inv) if inv else 1
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
    with m = gcd(p-1, 12), and (-1, p+1, -p) at level p^2."""
    p, k = level_prime(n)
    if p < 5:
        raise ValidationError(f"need a prime p >= 5, got {p}")
    if k == 1:
        m = math.gcd(p - 1, 12)
        r = {1: 24 // m, p: -(24 // m)}
        expected = CuspDivisor.from_map(n, {1: (p - 1) // m, p: -((p - 1) // m)})
    else:
        r = {1: -1, p: p + 1, n: -p}
        order = (n - 1) // 24
        expected = CuspDivisor.from_map(n, {p: order, n: -order * (p - 1)})
    if not ligozat_check(n, r).ok:
        raise InternalCheckError(f"special function fails rationality at level {n}")
    image = eta_divisor(n, r)
    if image != expected:
        raise InternalCheckError(
            f"special function divisor mismatch at level {n}: {image} vs {expected}"
        )
    return r
