"""Exact arithmetic in K = Q(sqrt(-p)) for a prime p = 3 (mod 4), p > 3.

Elements live in the maximal order Z[w] with w = (1 + sqrt(-p))/2, so
w^2 = w - (1+p)/4 and sqrt(-p) = 2w - 1; a + b*w is the int pair (a, b),
and its conjugate (a + b, -b).  Provides split/inert prime
classification, normalized generators of split prime powers, the
valuation and unit-part residue symbol of an element at a place, and
local square tests at finite places of odd residue characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .arith import cornacchia, is_prime, jacobi, sqrt_mod_prime_power, valuation
from .errors import InternalCheckError, ValidationError

SPLIT_FACTOR = "split_factor"
SPLIT_CONJUGATE = "split_conjugate"
INERT = "inert"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class FieldCtx:
    """The field Q(sqrt(-p)); validated at construction."""

    p: int

    def __post_init__(self):
        if self.p <= 3 or self.p % 4 != 3 or not is_prime(self.p):
            raise ValidationError(
                f"field context requires a prime p > 3 with p = 3 mod 4, got {self.p}"
            )


# a + b*w as the pair (a, b)
Gen = tuple[int, int]


def _show(g: Gen) -> str:
    # a + b*w as error messages name it
    return f"{g[0]}{g[1]:+d}w"


def norm(ctx: FieldCtx, g: Gen) -> int:
    """N(a + b*w) = a^2 + a*b + b^2 N(w), with N(w) = (1+p)/4."""
    a, b = g
    n = a * a + a * b + b * b * ((1 + ctx.p) // 4)
    if n < 0:
        raise InternalCheckError(f"norm {n} of {_show(g)} is negative (p = {ctx.p})")
    return n


@dataclass(frozen=True)
class PlaceK:
    """A finite place of K of odd residue characteristic.

    For split places `omega_residue` is the root of z^2 - z + (1+p)/4 mod q
    that w reduces to; for the ramified place it is the double root
    (p+1)/2 mod p; for inert places it is None (the residue field is
    F_q[z] modulo that polynomial, and symbols go through the norm).
    """

    kind: str
    q: int
    omega_residue: Optional[int]
    p: int

    def label(self) -> str:
        if self.kind == RAMIFIED:
            return "pi"
        if self.kind == INERT:
            return f"inert({self.q})"
        tag = "" if self.kind == SPLIT_FACTOR else "'"
        return f"split({self.q}){tag}"

    def __repr__(self) -> str:
        return f"PlaceK[{self.label()}; p={self.p}]"


def classify_prime(ctx: FieldCtx, q: int) -> str:
    """'split' or 'inert' for an odd prime q distinct from p."""
    if q == 2 or q == ctx.p or not is_prime(q):
        raise ValidationError(f"classify_prime requires an odd prime != p, got {q}")
    return "split" if jacobi(-ctx.p, q) == 1 else "inert"


def places_above(ctx: FieldCtx, q: int) -> list[PlaceK]:
    """All places of K above the rational prime q (odd residue char only)."""
    if q == 2:
        raise ValidationError("places above 2 are unsupported")
    if q == ctx.p:
        return [PlaceK(RAMIFIED, ctx.p, (ctx.p + 1) // 2, ctx.p)]
    if classify_prime(ctx, q) == INERT:
        return [PlaceK(INERT, q, None, ctx.p)]
    disc_root = _omega_roots(ctx, q)
    return [
        PlaceK(SPLIT_FACTOR, q, disc_root[0], ctx.p),
        PlaceK(SPLIT_CONJUGATE, q, disc_root[1], ctx.p),
    ]


def _omega_roots(ctx: FieldCtx, q: int) -> tuple[int, int]:
    # The two roots of z^2 - z + (1+p)/4 mod a split prime q, smaller first.
    roots = sqrt_mod_prime_power(-ctx.p, q, 1)
    if not roots:
        raise InternalCheckError(f"no square root of -{ctx.p} mod the split prime {q}")
    s = roots[0]
    inv2 = pow(2, -1, q)
    r1, r2 = (1 + s) * inv2 % q, (1 - s) * inv2 % q
    if (r1 + r2) % q != 1 or r1 == r2:
        raise InternalCheckError(f"roots {r1}, {r2} of w mod {q} are not a conjugate pair (p = {ctx.p})")
    return (min(r1, r2), max(r1, r2))


def _local_data(ctx: FieldCtx, g: Gen, v: PlaceK) -> tuple[int, int]:
    """(valuation, symbol of the unit part) of a single generator at v.

    The unit part is taken w.r.t. the uniformizer q for split and inert
    places and sqrt(-p) for the ramified place, consistently for every
    generator, so products of unit parts stay multiplicative.

    g = (a, b) = a + b*w is first stripped of its content q^k,
    leaving g' = g / q^k, which q does not divide; residues mod q of g', of
    its norm or of its conjugate then decide every place:
    - inert: g' is a unit, of symbol (N g' | q);
    - ramified, q^k = (-pi^2)^k: g' is a unit, or pi times a unit = b/2 =
      b*w (mod pi);
    - split: g' is a unit at v, or lies in v to the power e = v_q(N g')
      and not in its conjugate, so g'/q^e = (N g'/q^e) / conj(g').
    """
    a, b = g
    if a == 0 and b == 0:
        raise ValidationError("zero has no valuation")
    q, r = v.q, v.omega_residue
    k = valuation(math.gcd(a, b), q)
    a, b = a // q**k, b // q**k
    if v.kind == INERT:
        val, unit = k, norm(ctx, (a, b))
    elif v.kind == RAMIFIED:
        val, unit = (2 * k, a + b * r) if (a + b * r) % q else (2 * k + 1, b * r)
        unit *= (-1) ** k
    elif (a + b * r) % q:
        val, unit = k, a + b * r
    else:
        n = norm(ctx, (a, b))
        e = valuation(n, q)
        val, unit = k + e, n // q**e * (a + b - b * r)
    sym = jacobi(unit, q)
    if sym == 0:
        raise InternalCheckError(f"unit part of {_show(g)} vanishes at the place {v.label()} (p = {ctx.p})")
    return (val, sym)


def is_local_square(ctx: FieldCtx, gens: Iterable[Gen], v: PlaceK) -> bool:
    """Whether a nonzero product of generators lies in (K_v^x)^2: the one
    square-class predicate over the local data of each generator."""
    if v.q == 2:
        raise ValidationError("local square test at residue characteristic 2")
    return _is_square_class(_local_data(ctx, g, v) for g in gens)


def _is_square_class(data: Iterable[tuple[int, int]]) -> bool:
    """Whether a product of factors with local data (valuation, symbol)
    is a local square.

    Odd-valuation products are non-squares; otherwise the product of the
    unit-part symbols decides (Hensel lifting is automatic away from 2).
    """
    total_val = 0
    sign = 1
    for val, sym in data:
        total_val += val
        if sym == -1:
            sign = -sign
    if total_val % 2:
        return False
    return sign == 1


# --- normalized generators of split prime powers ---------------------------


def split_generator(ctx: FieldCtx, q: int, h: int) -> Gen:
    """Generator f = (a, b) = a + b*w of the h-th power of a prime above a split q.

    s = 2a + b and t = b solve s^2 + p*t^2 = 4q^h; one Cornacchia step on a
    square root of -p mod q^h finds (|s|, |t|), and the signs give f, -f,
    fbar and -fbar.  Normalization: norm(f) = q^h, a = 1 (mod 4); the
    2-adic valuation of b is 1 for q = 3 (mod 4) and at least 2 for
    q = 1 (mod 4) (automatic; a violation raises InternalCheckError).  Of
    the residual conjugate pair the representative with b > 0 is
    preferred, then the larger a (all downstream results are
    conjugation-symmetric).
    """
    if ctx.p % 8 != 7:
        raise ValidationError(
            f"normalized split generators need 2 to split in Q(sqrt(-{ctx.p})), "
            f"that is p = 7 mod 8, got p = {ctx.p}"
        )
    if classify_prime(ctx, q) != "split":
        raise ValidationError(f"{q} does not split in Q(sqrt(-{ctx.p}))")
    if h < 1 or h % 2 == 0:
        raise ValidationError(f"class number must be odd and positive, got {h}")
    m = q**h
    sol = cornacchia(ctx.p, sqrt_mod_prime_power(-ctx.p, q, h)[0], m)
    if sol is None:
        raise InternalCheckError(f"no generator of a prime above {q} to the power {h} found")
    s, t = sol
    candidates = [((ss - b) // 2, b) for b in (t, -t) for ss in (s, -s) if (ss - b) // 2 % 4 == 1]
    if len(candidates) != 2:
        raise InternalCheckError(
            f"expected one conjugate pair of normalized generators for {q}^{h}, "
            f"got {', '.join(map(_show, candidates))}"
        )
    candidates.sort(key=lambda f: (f[1] > 0, f[0]), reverse=True)
    f = candidates[0]
    if norm(ctx, f) != m or f[0] % 4 != 1:
        raise InternalCheckError(f"generator {_show(f)} of {q}^{h} has norm {norm(ctx, f)} or a != 1 mod 4")
    v2b = valuation(f[1], 2)
    if q % 4 == 3:
        if v2b != 1:
            raise InternalCheckError(f"generator {_show(f)} of {q}^{h}: expected 2-adic valuation 1 of b, got {v2b}")
    elif v2b < 2:
        raise InternalCheckError(f"generator {_show(f)} of {q}^{h}: expected 2-adic valuation >= 2 of b, got {v2b}")
    return f
