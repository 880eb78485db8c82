"""Eta-products on X0(N) for N = p or p^2: rationality conditions, divisors
at cusps, and orders and the group of rational cuspidal divisor classes,
read off a closed-form basis of the rational eta-products.  `divisors` is
the one parse of a level; each public function calls it once and hands
[1, p] or [1, p, p^2] to private helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .arith import factor, is_prime
from .errors import InternalCheckError, ValidationError

# An eta-product is encoded by its exponent map {divisor d of N: r_d}.
EtaExponents = Mapping[int, int]


def _shape(n: int) -> list[int]:
    """[1, r, n] when n = r^2 > 0, and [1, n] otherwise: the one decision of
    the shape of a level, which `divisors` and `CuspDivisor` read."""
    root = math.isqrt(max(n, 0))
    return [1, root, n] if n > 0 and root * root == n else [1, n]


def divisors(n: int) -> list[int]:
    """[1, p] at level p and [1, p, p^2] at level p^2: the shape of n, and
    one primality test of its middle entry decides whether n is supported."""
    divs = _shape(n)
    if not is_prime(divs[1]):
        raise ValidationError(f"supported levels are p and p^2, got {n}")
    return divs


def canonical_orders(p: int) -> tuple[int, int]:
    """(n_p, n_p2): the orders of the canonical cuspidal classes on X0(p)
    and X0(p^2), (p-1)/(p-1, 12) (Mazur) and (p^2-1)/24 (Ling).  The one
    test of a prime p >= 5, the prime of a level p or p^2."""
    if p < 5 or not is_prime(p):
        raise ValidationError(f"need a prime p >= 5, got {p}")
    return (p - 1) // math.gcd(p - 1, 12), (p * p - 1) // 24


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
    """r as an int at every divisor; an exponent that is not an integer
    raises, where an integral Fraction or float is read as its int."""
    _check_divisors(divs, r)
    exps = {d: int(r.get(d, 0)) for d in divs}
    for d, v in r.items():
        if v != exps[d]:
            raise ValidationError(f"exponent {v} at divisor {d} is not an integer")
    return exps


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

    The multiplicity of each single cusp of level d is nums[i]/den, d the
    i-th divisor of the level; the orbit sum D_d has a bare 1 at level d.
    An entry may be any exact number with `as_integer_ratio` (an int, a
    Fraction); it is stored as an integer numerator over one positive
    denominator in lowest terms, so equal divisors compare and hash equal.
    There are 3 entries at a square level and 2 at any other; `from_map`
    also checks that the level is p or p^2.
    """

    level: int
    nums: tuple[int, ...]  # indexed like divisors(level)
    den: int = 1

    def __post_init__(self) -> None:
        if len(self.nums) != (size := len(_shape(self.level))):
            raise ValidationError(f"a divisor at level {self.level} has {size} entries, got {len(self.nums)}")
        ratios = [x.as_integer_ratio() for x in self.nums]
        den = math.lcm(*[b for _, b in ratios])
        nums = [a * (den // b) for a, b in ratios]
        den *= self.den
        if not den:
            raise ValidationError("divisor has denominator 0")
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple([a // g for a in nums]))
        object.__setattr__(self, "den", den // g)

    @staticmethod
    def from_map(level: int, coeffs: Mapping[int, int | Fraction]) -> "CuspDivisor":
        divs = divisors(level)
        _check_divisors(divs, coeffs)
        return CuspDivisor(level, tuple(coeffs.get(d, 0) for d in divs))

    def divisors(self) -> list[int]:
        """The divisors of the level, one per coefficient."""
        return _shape(self.level)

    def coeff(self, d: int) -> Fraction:
        divs = self.divisors()
        _check_divisors(divs, [d])
        return Fraction(self.nums[divs.index(d)], self.den)

    def degree(self) -> int | Fraction:
        total = sum(a * s for a, s in zip(self.nums, _orbit_sizes(self.divisors())))
        return Fraction(total, self.den) if total else 0

    def int_vector(self) -> tuple[int, ...]:
        if self.den != 1:
            raise ValidationError(f"divisor is not integral: {self}")
        return self.nums

    def scale(self, k: int | Fraction) -> "CuspDivisor":
        return CuspDivisor(self.level, tuple(a * k for a in self.nums), self.den)

    def __repr__(self) -> str:
        parts = [f"{Fraction(a, self.den)}*[{d}]" for d, a in zip(self.divisors(), self.nums) if a]
        return " + ".join(parts) if parts else "0"


def eta_divisor(n: int, r: EtaExponents) -> CuspDivisor:
    """Divisor of prod_d eta(d z)^{r_d} on X0(N), one entry per cusp orbit.

    Order at a cusp of level c: the integer sum_d r_d*gcd(c,d)^2*(N/d) over
    24*gcd(c^2, N).  The entries are integers whenever the product is an
    actual rational function (Ligozat conditions).
    """
    divs = divisors(n)
    return _eta_divisor(divs, _validated_exponents(divs, r))


def _eta_divisor(divs: Sequence[int], r: EtaExponents) -> CuspDivisor:
    """The divisor of r over 24N."""
    return CuspDivisor(divs[-1], tuple(_eta_numerators(divs, r)), 24 * divs[-1])


def _eta_numerators(divs: Sequence[int], r: EtaExponents) -> list[int]:
    """The numerators of the divisor of r over 24N: at cusp level c,
    sum_d r_d*gcd(c,d)^2*(N/d) times N/gcd(c^2, N)."""
    n = divs[-1]
    nums = [sum(rd * math.gcd(c, d) ** 2 * (n // d) for d, rd in r.items()) * (n // math.gcd(c * c, n)) for c in divs]
    # valence formula: the degree is (sum r_d / 2) [SL2(Z) : Gamma0(N)] / 12,
    # so it vanishes exactly at weight 0; 24N times it is a sum of integers
    if sum(r.values()) == 0 and (total := sum(s * a for s, a in zip(_orbit_sizes(divs), nums))):
        raise InternalCheckError(
            f"eta divisor of weight 0 has degree {Fraction(total, 24 * n)} at level {n}: {dict(r)}"
        )
    return nums


# --- the eta lattice and cuspidal orders -----------------------------------


def _basis(divs: Sequence[int]) -> list[dict[int, int]]:
    """A basis of the rational eta-products at the level with divisors `divs`:
    m(e_p - e_1), m = lcm(2, 24/(p-1, 24)), and at level N = p^2 also
    m'(e_N - e_1), m' = 24/(N-1, 24).

    At level p both mod-24 Ligozat conditions of a weight-0 r read
    (p - 1) r_p = 0 (mod 24), and the square condition says r_p is even.
    At p^2 with p >= 5, 24 | N - 1 leaves the same conditions on r_p and
    none on r_N (m' = 1); m' is 8 and 3 at the genus-0 levels 4 and 9."""
    p, n = divs[1], divs[-1]
    m, m2 = math.lcm(2, 24 // math.gcd(p - 1, 24)), 24 // math.gcd(n - 1, 24)
    return [{1: -m, p: m}] + [{1: -m2, n: m2}] * (n != p)


def _images(divs: Sequence[int], basis: Sequence[EtaExponents]) -> list[tuple[int, ...]]:
    """The divisor of each basis vector, without its last cusp, which degree
    0 determines: coordinates (m_1) at level p and (m_1, m_p) at p^2.  Each
    divisor must be integral: its numerators over 24N are multiples of 24N."""
    den, images = 24 * divs[-1], []
    for r in basis:
        nums = _eta_numerators(divs, r)
        if any(a % den for a in nums):
            raise ValidationError(f"divisor is not integral: {_eta_divisor(divs, r)}")
        images.append(tuple(a // den for a in nums[:-1]))
    return images


def _det(rows: Sequence[Sequence[int]]) -> int:
    return rows[0][0] if len(rows) == 1 else rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def _order_and_exponents(divs: Sequence[int], vec: Sequence[int]) -> tuple[int, dict[int, int]]:
    """The order n of the class of the integral divisor `vec` and the
    rational eta-product r with divisor n*vec.  By Cramer's rule vec has
    coordinates num_i/det in the divisors of the closed-form basis; n is
    their common denominator."""
    basis = _basis(divs)
    images, target = _images(divs, basis), list(vec[:-1])
    det = _det(images)
    nums = [_det(images[:i] + [target] + images[i + 1 :]) for i in range(len(images))]
    order = abs(det) // math.gcd(det, *nums)
    coords = [order * num // det for num in nums]
    return order, {d: sum(c * b.get(d, 0) for c, b in zip(coords, basis)) for d in divs}


def cuspidal_class_order(n: int, div: CuspDivisor) -> int:
    """Order of a rational degree-0 cuspidal divisor class in J0(N).

    The rational cuspidal classes are cut out by divisors of rational
    eta-products, whose lattice has a closed-form basis.  Every call checks
    the order n and the eta-product r that `_order_and_exponents` finds,
    each check a raise: r has divisor n*div exactly, r is rational
    (Ligozat), and r/l is not, for each prime l | n.
    """
    return _class_order(divisors(n), div)[0]


def _class_order(divs: list[int], div: CuspDivisor) -> tuple[int, dict[int, int]]:
    """`cuspidal_class_order` at the level with divisors `divs`, with the
    checked eta-product of n*div, one exponent per divisor of the level."""
    n = divs[-1]
    if div.level != n:
        raise ValidationError("divisor level mismatch")
    if div.degree() != 0:
        raise ValidationError(f"divisor has degree {div.degree()}, not 0")
    vec = div.int_vector()
    order, r = _order_and_exponents(divs, vec)
    # the divisor of r over 24N against order*div, on integer numerators
    if _eta_numerators(divs, r) != [24 * n * order * a for a in vec]:
        image = _eta_divisor(divs, r)
        raise InternalCheckError(f"eta-product {r} at level {n} has divisor {image}, not {order}*({div})")
    if any(v.denominator != 1 for v in r.values()) or not _ligozat(divs, r).ok:
        raise InternalCheckError(f"eta-product {r} of {order}*({div}) at level {n} fails Ligozat")
    for ell, _ in factor(order).factors:
        if all(v % ell == 0 for v in r.values()) and _ligozat(divs, {d: v // ell for d, v in r.items()}).ok:
            raise InternalCheckError(
                f"{order // ell}*({div}) at level {n} is already the divisor of a rational eta-product"
            )
    return order, r


@dataclass(frozen=True)
class CuspidalGroupReport:
    p: int
    invariants: tuple[int, ...]  # structure of the rational cuspidal group
    closed_form_12: tuple[int, int]  # (a, b) = (n_p, n_p2/n_p) of `canonical_orders`: invariants (a, a*b)


def cuspidal_group_invariants(p: int) -> CuspidalGroupReport:
    """Structure of the rational cuspidal divisor class group of X0(p^2).

    The divisors of the closed-form basis span the eta-divisor lattice
    inside the rank-2 lattice of rational degree-0 cuspidal divisors, in
    the coordinates (m_1, m_p).  Its invariants are d1, the gcd of their
    four entries, and |det|/d1; they are checked against Ling's closed form
    (n_p, n_p2) of `canonical_orders`, less its 1s.
    """
    n_p, n_p2 = canonical_orders(p)
    divs = (1, p, p * p)
    images = _images(divs, _basis(divs))
    d1 = math.gcd(*images[0], *images[1])
    inv = tuple(d for d in (d1, abs(_det(images)) // d1) if d != 1)
    if inv != tuple(d for d in (n_p, n_p2) if d != 1):
        raise InternalCheckError(f"cuspidal group of X0({p}^2) has invariants {inv}, not Ling's ({n_p}, {n_p2})")
    return CuspidalGroupReport(p=p, invariants=inv, closed_form_12=(n_p, n_p2 // n_p))


# --- the two special eta-products ------------------------------------------


def special_function(n: int) -> dict[int, int]:
    """Exponents of the canonical eta-product of level n = p or p^2, whose
    divisor generates the relevant cuspidal class: (24/m, -24/m) at level p
    with m = gcd(p-1, 12), and (-1, p+1, -p) at level p^2.  Every call
    checks them, each check a raise: they pass Ligozat, and their divisor is
    the closed form, which is integral: n_p([1] - [p]) at level p and
    n_p2([p] - (p-1)[p^2]) at p^2, from `canonical_orders`."""
    divs = divisors(n)
    p = divs[1]
    n_p, n_p2 = canonical_orders(p)
    e = 24 * n_p // (p - 1)  # 24/(p-1, 12)
    r = {1: e, p: -e} if n == p else {1: -1, p: p + 1, n: -p}
    if not _ligozat(divs, r).ok:
        raise InternalCheckError(f"special function fails rationality at level {n}")
    # the closed form is integral, so it is compared on integer numerators over 24N
    expected = (n_p, -n_p) if n == p else (0, n_p2, -n_p2 * (p - 1))
    if _eta_numerators(divs, r) != [24 * n * a for a in expected]:
        raise InternalCheckError(
            f"special function divisor mismatch at level {n}: {_eta_divisor(divs, r)} vs {CuspDivisor(n, expected)}"
        )
    return r


def is_special(n: int, r: EtaExponents) -> bool:
    """Whether the nonzero exponents of r are `special_function(n)`, which
    checks them; never at a level other than p or p^2, nor below p = 5."""
    try:
        canonical = special_function(n)
    except ValidationError:
        return False
    return {d: v for d, v in r.items() if v} == canonical


def _rational_eta_product(level: int, r: EtaExponents, div: CuspDivisor) -> tuple[int, int, int, bool]:
    """The prime p of the level, the checked order n of the class of div,
    the prime exponent e of r and whether r is canonical, for the general
    Heegner criterion; r must have divisor n*div.  e is even: the
    eta-divisor map is invertible, so r is the rational eta-product of
    n*div, and prod_d d^{r_d} = p^e is a square."""
    divs = divisors(level)
    n, r_div = _class_order(divs, div)
    # the class order checked that r_div has divisor n*div, and no other r has
    if _validated_exponents(divs, r) != r_div:
        raise ValidationError(f"eta-product divisor {eta_divisor(level, r)} is not n*D = {div.scale(n)} with n = {n}")
    e = _prime_exponent(divs, r_div)
    if e % 2:
        raise InternalCheckError(f"odd prime exponent {e} in the eta-product of n*D at level {level}")
    return divs[1], n, e, is_special(level, r)
