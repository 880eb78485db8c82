"""Class groups of imaginary quadratic orders via binary quadratic forms.

Forms (A, B, C) of negative discriminant are composed by two extended gcds
(Cohen's united-forms algorithm) and fully reduced afterwards.  The
primitive reduced forms are enumerated by walking the leading coefficients
a <= sqrt(|D|/3) with the square roots of D mod 4a, so a list costs about
sqrt(|D|) plus its output.  At a fundamental discriminant the class number
is counted from the number of those roots and lists only the forms with
a > sqrt(|D|/4); the enumeration stays the independent oracle the rest of
the package leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .arith import crt, factor, is_prime, jacobi, smallest_prime_factors, sqrt_mod, sqrt_mod_prime_power
from .errors import InternalCheckError, ResourceCapError, ValidationError

# caps reduced_forms and class_number_of_disc: near |D| = 10^9 one
# enumeration lists 9-23 thousand forms in 0.06-0.10 s (2-core Xeon VM)
MAX_ENUMERATED_DISC = 10**9


@dataclass(frozen=True)
class BQForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __repr__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def _check_disc(disc: int):
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValidationError(f"need a negative discriminant = 0,1 mod 4, got {disc}")


def principal_form(disc: int) -> BQForm:
    _check_disc(disc)
    k = disc % 2
    return BQForm(1, k, (k * k - disc) // 4)


def normalize(f: BQForm) -> BQForm:
    a, b, c = f.a, f.b, f.c
    if -a < b <= a:
        return f
    r = (a - b) // (2 * a)
    b, c = b + 2 * r * a, a * r * r + b * r + c
    return BQForm(a, b, c)


def reduce_form(f: BQForm) -> BQForm:
    """Unique reduced representative: |B| <= A <= C, B >= 0 if |B| = A or A = C."""
    if f.a <= 0:
        raise ValidationError(f"positive definite forms only, got {f}")
    g = normalize(f)
    a, b, c = g.a, g.b, g.c
    while a > c or (a == c and b < 0):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
    assert -a < b <= a <= c and (b >= 0 or (a != -b and a != c))
    return BQForm(a, b, c)


def inverse(f: BQForm) -> BQForm:
    return reduce_form(BQForm(f.a, -f.b, f.c))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def compose(f1: BQForm, f2: BQForm) -> BQForm:
    """Reduced Gauss composite of two primitive positive definite forms of
    equal discriminant.

    With a1 <= a2 and s = (b1 + b2)/2, two extended gcds
    d = gcd(a2, a1) = u*a2 + v*a1 and d1 = gcd(s, d) = x*s + y*d give the
    united form (a1*a2/d1^2, b2 + 2*(a2/d1)*r, c3) with
    r = -u*y*(b2 - s) - x*c2 mod a1/d1, which is then reduced (Cohen,
    GTM 138, Algorithm 5.4.7).
    """
    if f1.disc != f2.disc:
        raise ValidationError(f"discriminant mismatch: {f1.disc} vs {f2.disc}")
    if f1.a <= 0 or f2.a <= 0:
        raise ValidationError(f"positive definite forms only, got {f1} and {f2}")
    disc = f1.disc
    if f1.a > f2.a:
        f1, f2 = f2, f1
    a1, a2, b2, c2 = f1.a, f2.a, f2.b, f2.c
    s = (f1.b + b2) // 2
    # the shortcuts skip a Euclid call when a1 | a2 (every squaring) or d | s (d = 1 mostly)
    d, u, _ = (a1, 0, 1) if a2 % a1 == 0 else _xgcd(a2, a1)
    d1, x, y = (d, 0, 1) if s % d == 0 else _xgcd(s, d)
    v1, v2 = a1 // d1, a2 // d1
    r = (-u * y * (b2 - s) - x * c2) % v1
    b3, a3 = b2 + 2 * v2 * r, v1 * v2
    if (b3 * b3 - disc) % (4 * a3):
        raise InternalCheckError(f"composite of {f1} and {f2}: 4*{a3} does not divide {b3}^2 - ({disc})")
    out = reduce_form(BQForm(a3, b3, (b3 * b3 - disc) // (4 * a3)))
    if out.disc != disc:
        raise InternalCheckError(f"composite of {f1} and {f2} has discriminant {out.disc}")
    return out


def form_pow(f: BQForm, n: int) -> BQForm:
    one = principal_form(f.disc)
    if n < 0:
        f, n = inverse(f), -n
    result, base = None, reduce_form(f)
    while n:
        if n & 1:
            result = base if result is None else compose(result, base)
        n >>= 1
        if n:
            base = compose(base, base)
    return one if result is None else result


def _check_enumerable(disc: int):
    _check_disc(disc)
    if -disc > MAX_ENUMERATED_DISC:
        raise ResourceCapError(
            f"discriminants are capped at |D| <= {MAX_ENUMERATED_DISC}, got {disc}"
        )


def is_fundamental(disc: int) -> bool:
    """Whether a negative discriminant is fundamental: D = 1 (mod 4) squarefree,
    or D = 4m with m = 2, 3 (mod 4) squarefree.

    Squarefreeness by trial division up to the cube root of what is left:
    its prime factors are then larger than that root, so there are at most
    two of them, and it has a square factor only when it is a square."""
    _check_disc(disc)
    if disc % 4 == 1:
        m = -disc
    elif (disc // 4) % 4 in (2, 3):
        m = -disc // 4
        if m % 2 == 0:
            m //= 2  # m = 2 (mod 4): its one factor 2
    else:
        return False
    ell = 3
    while ell * ell * ell <= m:
        if m % ell == 0:
            m //= ell
            if m % ell == 0:
                return False
        ell += 2
    return m == 1 or math.isqrt(m) ** 2 != m


def _two_adic_roots(disc: int, amax: int) -> list[list[int]]:
    """two[k] for 2^k <= amax: the x mod 2^(k+1) with x^2 = D (mod 2^(k+2)), sorted.

    The roots mod 2^(j+1) are the lifts r and r + 2^j of the roots r mod 2^j
    that still solve the congruence, so the chain is one lift step a level."""
    roots, mod, two = [disc % 2], 2, []  # the roots mod 2: x^2 = x (mod 2)
    while 1 << len(two) <= amax:
        while mod < 4 << len(two):
            roots = [x for r in roots for x in (r, r + mod) if (x * x - disc) % (2 * mod) == 0]
            mod *= 2
        two.append(sorted({r % (mod // 2) for r in roots}))
    return two


def _odd_roots(disc: int, spf: list[int]) -> Callable[[int], list[int]]:
    """roots(m): the x mod m with x^2 = D (mod m), for odd m covered by the
    sieve `spf`, joined by CRT from the roots mod its prime powers and kept,
    so each set is built once from smaller ones."""
    memo: list = [None, [0]] + [None] * (len(spf) - 2)

    def roots(m: int) -> list[int]:
        if memo[m] is None:
            ell, k, rest = spf[m], 1, m // spf[m]
            while rest % ell == 0:
                k, rest = k + 1, rest // ell
            if rest > 1:
                memo[m] = crt(roots(rest), rest, roots(m // rest), m // rest)
            else:
                memo[m] = sqrt_mod_prime_power(disc, ell, k)
        return memo[m]

    return roots


def _forms_with_leading(
    disc: int, leading: Iterable[int], two: list[list[int]], roots: Callable[[int], list[int]]
) -> list[BQForm]:
    """The primitive reduced forms (a, b, c) for a in `leading`, in order of
    (a, b): b runs over the roots of b^2 = D (mod 4a) in (-a, a], the CRT
    join of two[k] and roots(m) for a = 2^k m with m odd."""
    forms = []
    for a in leading:
        k = (a & -a).bit_length() - 1
        odd = roots(a >> k) if two[k] else None
        if not odd:
            continue
        for b in sorted(b if b <= a else b - 2 * a for b in crt(two[k], 2 << k, odd, a >> k)):
            c = (b * b - disc) // (4 * a)
            if c >= a and (b >= 0 or c != a) and math.gcd(a, b, c) == 1:
                forms.append(BQForm(a, b, c))
    return forms


def reduced_forms(disc: int) -> list[BQForm]:
    """The primitive reduced forms of a negative discriminant, one per class
    of the order of that discriminant, sorted.

    For each a <= sqrt(|D|/3) the b with b^2 = D (mod 4a) are a set of
    residues mod 2a: with a = 2^k m and m odd, the roots mod 2^(k+2), read
    mod 2^(k+1), joined by CRT to the roots mod m.  The roots mod every odd
    m are joined over a smallest-prime-factor sieve from the roots mod its
    prime powers, so a prime with no root empties the sets of all its
    multiples.  Cost O(|D|^(1/2+eps)) plus the output (Cohen, GTM 138,
    sections 1.5 and 5.3).
    """
    _check_enumerable(disc)
    amax = math.isqrt(-disc // 3)
    two = _two_adic_roots(disc, amax)
    roots = _odd_roots(disc, smallest_prime_factors(amax))
    return _forms_with_leading(disc, range(1, amax + 1), two, roots)


def class_number_of_disc(disc: int) -> int:
    """The class number of the order of discriminant D (|D| under the cap)."""
    _check_enumerable(disc)
    return fundamental_class_number(disc) if is_fundamental(disc) else len(reduced_forms(disc))


def fundamental_class_number(disc: int) -> int:
    """The class number at a D that the caller knows is fundamental, |D| under the cap.

    At a fundamental D every form is primitive, and for a <= sqrt(|D|/4)
    every root b in (-a, a] of b^2 = D (mod 4a) gives a reduced form, since
    then c >= a with c = a only at b = 0.  So h adds up the number of those
    roots there, which is multiplicative in a: the 2-adic count times, over
    the odd l^e exactly dividing a, 1 + (D/l) when l does not divide D, 1
    when e = 1 and l | D, and 0 when e > 1 and l | D.  Only the band
    sqrt(|D|/4) < a <= sqrt(|D|/3) lists its forms.  One Jacobi symbol per
    odd prime up to sqrt(|D|/3), no form list (Cohen, GTM 138, section 5.3).
    """
    _check_enumerable(disc)
    amax, half = math.isqrt(-disc // 3), math.isqrt(-disc // 4)
    spf = smallest_prime_factors(amax)
    two = _two_adic_roots(disc, amax)
    # count[m]: the number of x mod m with x^2 = D (mod m) for odd m, 0 at even m
    count = [0, 1] + [0] * (amax - 1)
    for m in range(3, amax + 1, 2):
        ell = spf[m]
        if ell == m:
            count[m] = 1 + jacobi(disc, m)
        elif (m // ell) % ell:
            count[m] = count[ell] * count[m // ell]
        elif disc % ell:
            count[m] = count[m // ell]
    h = sum(len(two[k]) * sum(count[: (half >> k) + 1]) for k in range(len(two)))
    band = [a for a in range(half + 1, amax + 1) if count[a // (a & -a)]]
    return h + len(_forms_with_leading(disc, band, two, _odd_roots(disc, spf)))


def field_disc(p: int) -> int:
    """-p, the discriminant of Q(sqrt(-p)) for a prime p = 3 (mod 4), p > 3."""
    if p <= 3 or p % 4 != 3 or not is_prime(p):
        raise ValidationError(f"class_number requires a prime p > 3, p = 3 mod 4, got {p}")
    return -p


def class_number(p: int) -> int:
    """h of Q(sqrt(-p)) for a prime p = 3 (mod 4), p > 3."""
    return class_number_of_disc(field_disc(p))


def class_order(f: BQForm, h: int | None = None) -> int:
    """Order of the class of f in the class group of its discriminant.

    `h` is the class number when the caller has it already (any multiple
    of the order will do); otherwise `class_number_of_disc` gives it, with
    no form list at a fundamental discriminant.  From
    k = h, each prime l of h is divided out of k while f^(k/l) stays
    principal: O(omega(h) * log h) compositions.
    """
    if h is None:
        h = class_number_of_disc(f.disc)
    one = principal_form(f.disc)
    if form_pow(f, h) != one:
        raise InternalCheckError(f"order of {f} does not divide the class number {h}")
    k = h
    for ell, _ in factor(h).factors:
        while k % ell == 0 and form_pow(f, k // ell) == one:
            k //= ell
    return k


def prime_form(disc: int, q: int) -> BQForm:
    """Reduced class of a prime ideal of norm q (q odd; split or ramified)."""
    _check_disc(disc)
    if q == 2 or not is_prime(q):
        raise ValidationError(f"prime_form requires an odd prime, got {q}")
    if disc % q == 0:
        # ramified prime: left unreduced, e.g. (p, p, (p+1)/4) for disc -p
        for b in range(0, 2 * q):
            if (b - disc) % 2 == 0 and (b * b - disc) % (4 * q) == 0:
                return BQForm(q, b, (b * b - disc) // (4 * q))
        raise InternalCheckError(f"no ramified form above {q} for disc {disc}")
    if jacobi(disc, q) != 1:
        raise ValidationError(f"{q} is inert for discriminant {disc}")
    b = sqrt_mod(disc % q, q)
    assert b is not None
    if (b - disc) % 2:
        b = q - b
    assert (b * b - disc) % (4 * q) == 0
    return reduce_form(BQForm(q, b, (b * b - disc) // (4 * q)))
