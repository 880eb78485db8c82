"""Class groups of imaginary quadratic orders via binary quadratic forms.

Forms (A, B, C) of negative discriminant are composed by the classical
united-forms (Gauss/Dirichlet) procedure and fully reduced afterwards;
class numbers come from direct enumeration of primitive reduced forms,
which is the independent oracle the rest of the package leans on.  The
enumeration walks the leading coefficients a <= sqrt(|D|/3) with the
square roots of D mod 4a, so it costs about sqrt(|D|) plus its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import crt, factor, is_prime, jacobi, smallest_prime_factors, sqrt_mod, sqrt_mod_prime_power
from .errors import InternalCheckError, ResourceCapError, ValidationError

# bounds the output of reduced_forms and its time: near |D| = 10^9 one
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


def _transform(f: BQForm, alpha: int, beta: int, gamma: int, delta: int) -> BQForm:
    # action of the SL2(Z) matrix [[alpha, beta], [gamma, delta]]
    assert alpha * delta - beta * gamma == 1
    a, b, c = f.a, f.b, f.c
    a2 = a * alpha * alpha + b * alpha * gamma + c * gamma * gamma
    b2 = 2 * a * alpha * beta + b * (alpha * delta + beta * gamma) + 2 * c * gamma * delta
    c2 = a * beta * beta + b * beta * delta + c * delta * delta
    return BQForm(a2, b2, c2)


def _coprime_representative(f: BQForm, m: int) -> BQForm:
    """An SL2(Z)-equivalent form whose leading coefficient is coprime to m."""
    if math.gcd(f.a, m) == 1:
        return f
    # CRT a primitive vector (x, y) with f(x, y) nonzero mod every prime of m
    x, y, modulus = 0, 1, 1
    for ell, _ in factor(m).factors:
        for xe, ye in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)):
            if (f.a * xe * xe + f.b * xe * ye + f.c * ye * ye) % ell:
                break
        else:  # primitive forms are nonzero mod every prime
            raise InternalCheckError(f"{f} vanishes identically mod {ell}")
        if modulus == 1:
            x, y, modulus = xe, ye, ell
        else:
            inv_m, inv_e = pow(modulus, -1, ell), pow(ell, -1, modulus)
            x = (x * ell * inv_e + xe * modulus * inv_m) % (modulus * ell)
            y = (y * ell * inv_e + ye * modulus * inv_m) % (modulus * ell)
            modulus *= ell
    if x == 0:
        x = modulus
    k = 0
    while math.gcd(x, y + k * modulus) != 1:
        k += 1
    y += k * modulus
    g, u, v = _xgcd(x, y)
    assert g == 1
    out = _transform(f, x, -v, y, u)
    assert math.gcd(out.a, m) == 1 and out.disc == f.disc
    return out


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
    """Reduced Gauss composite of two forms of equal discriminant.

    Dirichlet composition on united representatives: replace f2 by an
    equivalent form with leading coefficient coprime to a1, pick the
    common middle coefficient B = b1 (mod 2a1), B = b2 (mod 2a2), and
    compose to (a1*a2, B, (B^2-D)/(4*a1*a2)); then reduce.
    """
    if f1.disc != f2.disc:
        raise ValidationError(f"discriminant mismatch: {f1.disc} vs {f2.disc}")
    disc = f1.disc
    g1 = reduce_form(f1)
    g2 = _coprime_representative(reduce_form(f2), g1.a)
    a1, b1 = g1.a, g1.b
    a2, b2 = g2.a, g2.b
    assert math.gcd(a1, a2) == 1 and (b1 - b2) % 2 == 0
    k = (b2 - b1) // 2 * pow(a1, -1, a2) % a2
    bb = b1 + 2 * a1 * k
    assert (bb - b1) % (2 * a1) == 0 and (bb - b2) % (2 * a2) == 0
    a3 = a1 * a2
    assert (bb * bb - disc) % (4 * a3) == 0
    out = reduce_form(BQForm(a3, bb, (bb * bb - disc) // (4 * a3)))
    assert out.disc == disc
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
    _check_disc(disc)
    if -disc > MAX_ENUMERATED_DISC:
        raise ResourceCapError(
            f"form enumeration is capped at |D| <= {MAX_ENUMERATED_DISC}, got {disc}"
        )
    amax = math.isqrt(-disc // 3)
    spf = smallest_prime_factors(amax)
    # odd[m]: the x mod m with x^2 = D (mod m), for odd m
    odd: list = [None, [0]] + [None] * (amax - 1)
    for m in range(3, amax + 1, 2):
        ell, k, rest = spf[m], 1, m // spf[m]
        while rest % ell == 0:
            k, rest = k + 1, rest // ell
        if rest > 1:
            odd[m] = crt(odd[rest], rest, odd[m // rest], m // rest)
        else:
            odd[m] = sqrt_mod_prime_power(disc, ell, k)
    # two[k]: the x mod 2^(k+1) with x^2 = D (mod 2^(k+2))
    two: list = []
    while 1 << len(two) <= amax:
        k = len(two)
        two.append(sorted({r % (2 << k) for r in sqrt_mod_prime_power(disc, 2, k + 2)}))
    forms = []
    for a in range(1, amax + 1):
        k = (a & -a).bit_length() - 1
        if not odd[a >> k] or not two[k]:
            continue
        bs = crt(two[k], 2 << k, odd[a >> k], a >> k)
        for b in sorted(b if b <= a else b - 2 * a for b in bs):
            c = (b * b - disc) // (4 * a)
            if c >= a and (b >= 0 or c != a) and math.gcd(a, b, c) == 1:
                forms.append(BQForm(a, b, c))
    return forms


def class_number_of_disc(disc: int) -> int:
    return len(reduced_forms(disc))


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
    of the order will do); otherwise the reduced forms are counted.  From
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
