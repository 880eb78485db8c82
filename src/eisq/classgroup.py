"""Class groups of imaginary quadratic orders via binary quadratic forms.

Forms (A, B, C) of negative discriminant are composed by two extended gcds
(Cohen's united-forms algorithm) and fully reduced afterwards, on plain
integer triples: one reduction, one composition and one power serve every
public function, and class orders come from the class number one prime
power at a time.  The primitive reduced forms are listed on integers too:
for each leading coefficient a <= sqrt(|D|/3) the square roots b of D mod
4a are joined, by one CRT multiplier per a, from a 2-adic chain and one
flat table of the roots mod each odd m, and c = (b^2 - D)/4a.  Only the
band sqrt(|D|/4) < a <= sqrt(|D|/3) tests c >= a, and only a
non-fundamental D tests gcd(a, b, c) = 1; each form is built once, as the
int triple the list holds.  So a list costs about sqrt(|D|) plus its output.
At a fundamental discriminant the class number is counted from the number
of those roots, and of the band's roots that pass, with no form built; the
list stays the independent oracle the rest of the package leans on.

What no D enters is kept once per process, in one sieve that the list
and the count share, up to a power of two >= sqrt(|D|/3): the smallest
prime factors, the split of each odd m into a prime power q and m/q, and
the CRT multipliers of those splits and of each a, checked when they are
made.  A larger D rebuilds it and a smaller one reads a prefix.  Per D
only the roots mod each prime power and their joins are found, with
(D/l) decided by one power at each prime.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import Iterable, NamedTuple

from .arith import factor, is_prime, jacobi, smallest_prime_factors, sqrt_mod_prime_power
from .errors import InternalCheckError, ResourceCapError, ValidationError

# caps reduced_forms and fundamental_class_number: near |D| = 10^9 one
# enumeration lists 7-62 thousand forms in 0.04-0.11 s (2-core Xeon VM); it
# also bounds the kept sieve at a <= isqrt(10^9 // 3) = 18257, about 1.5 MB
# (0.15 MB at a <= 2048, enough for |D| < 1.26 * 10^7)
MAX_ENUMERATED_DISC = 10**9
# bounds the class-number memo: the h of the last 4096 fundamental D counted
# in this process, about 0.9 MB when full; a sweep over every fundamental D
# with |D| < 13000 (about 3|D|/pi^2 of them) fits
CLASS_NUMBER_MEMO = 4096


# a binary quadratic form a*x^2 + b*x*y + c*y^2, as the int triple (a, b, c)
Triple = tuple[int, int, int]


def _check_disc(disc: int):
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValidationError(f"need a negative discriminant = 0,1 mod 4, got {disc}")


def _positive_definite(f: Triple) -> int:
    """The discriminant of f, once f is checked positive definite."""
    a, b, c = f
    disc = b * b - 4 * a * c
    if a <= 0 or disc >= 0:
        raise ValidationError(f"positive definite forms only, got {f}")
    return disc


def _principal(disc: int) -> Triple:
    k = disc % 2
    return 1, k, (k - disc) // 4


def _normalize(a: int, b: int, c: int) -> Triple:
    """The form a*(x + r*y)^2 + b*(x + r*y)*y + c*y^2 with -a < b + 2*r*a <= a."""
    r = (a - b) // (2 * a)
    return a, b + 2 * r * a, a * r * r + b * r + c


def _reduce(a: int, b: int, c: int) -> Triple:
    """Unique reduced representative: |B| <= A <= C, B >= 0 if |B| = A or A = C.

    Normalize, then swap (a, b, c) -> (c, -b, a) and normalize again while
    a > c, or a = c and b < 0."""
    if not -a < b <= a:
        a, b, c = _normalize(a, b, c)
    while a > c or (a == c and b < 0):
        a, b, c = _normalize(c, -b, a)
    if not (-a < b <= a <= c and (b >= 0 or a != c)):
        raise InternalCheckError(f"({a},{b},{c}) is not reduced")
    return a, b, c


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


def _compose(t1: Triple, t2: Triple, disc: int) -> Triple:
    """Reduced Gauss composite of two primitive positive definite forms of
    discriminant `disc`.

    With a1 <= a2 and s = (b1 + b2)/2, two extended gcds
    d = gcd(a2, a1) = u*a2 + v*a1 and d1 = gcd(s, d) = x*s + y*d give the
    united form (a1*a2/d1^2, b2 + 2*(a2/d1)*r, c3) with
    r = -u*y*(b2 - s) - x*c2 mod a1/d1, which is then reduced (Cohen,
    GTM 138, Algorithm 5.4.7).
    """
    if t1[0] > t2[0]:
        t1, t2 = t2, t1
    (a1, b1, _), (a2, b2, c2) = t1, t2
    s = (b1 + b2) // 2
    # the shortcuts skip a Euclid call when a1 | a2 (every squaring) or d | s (d = 1 mostly)
    d, u, _ = (a1, 0, 1) if a2 % a1 == 0 else _xgcd(a2, a1)
    d1, x, y = (d, 0, 1) if s % d == 0 else _xgcd(s, d)
    v1, v2 = a1 // d1, a2 // d1
    r = (-u * y * (b2 - s) - x * c2) % v1
    b3, a3 = b2 + 2 * v2 * r, v1 * v2
    c3, rem = divmod(b3 * b3 - disc, 4 * a3)
    if rem:
        raise InternalCheckError(f"composite of {t1} and {t2}: 4*{a3} does not divide {b3}^2 - ({disc})")
    a, b, c = out = _reduce(a3, b3, c3)
    if b * b - 4 * a * c != disc:
        raise InternalCheckError(f"composite of {t1} and {t2} has discriminant {b * b - 4 * a * c}")
    return out


def _pow(t: Triple, n: int, disc: int) -> Triple:
    """t^n for a reduced triple t and n >= 0, by repeated squaring."""
    result = None
    while n:
        if n & 1:
            result = t if result is None else _compose(result, t, disc)
        n >>= 1
        if n:
            t = _compose(t, t, disc)
    return _principal(disc) if result is None else result


def compose(f1: Triple, f2: Triple) -> Triple:
    """Reduced Gauss composite of two primitive positive definite forms of
    equal discriminant (Cohen, GTM 138, Algorithm 5.4.7)."""
    disc, disc2 = _positive_definite(f1), _positive_definite(f2)
    if disc2 != disc:
        raise ValidationError(f"discriminant mismatch: {disc} vs {disc2}")
    return _compose(f1, f2, disc)


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


class _Sieve(NamedTuple):
    """The half of form enumeration that no discriminant enters, for every
    leading coefficient a <= size, as flat int lists (all but `primes`
    indexed by a)."""

    size: int
    spf: list[int]  # the smallest prime factor of a
    primes: list[int]  # the odd primes up to size, increasing
    part: list[int]  # at odd a: q, the power of spf[a] exactly dividing a
    join: list[int]  # at odd a > q: u = 0 (mod q) and u = 1 (mod a/q)
    lift: list[int]  # at a = 2^k m, m odd: u = 0 (mod 2^(k+1)) and u = 1 (mod m)


# the one sieve this process keeps, replaced only by a larger one
_kept: list[_Sieve] = []


def _sieve(amax: int) -> _Sieve:
    """The kept sieve, rebuilt first when amax is past its size: at the next
    power of two >= amax, never past the amax of the cap, so a sweep of
    growing |D| builds it once per power of two and a smaller D reads a
    prefix of it."""
    if not _kept or _kept[0].size < amax:
        _kept[:] = [_build_sieve(min(1 << (amax - 1).bit_length(), math.isqrt(MAX_ENUMERATED_DISC // 3)))]
    return _kept[0]


def _build_sieve(size: int) -> _Sieve:
    """The sieve for a <= size.  Each CRT multiplier is checked as it is made,
    so a wrong one raises before the sieve is kept and never lists a form."""
    spf = smallest_prime_factors(size)
    part, join, lift = [0] * (size + 1), [0] * (size + 1), [0] * (size + 1)
    for m in range(1, size + 1, 2):
        if m > 1:
            ell = q = spf[m]
            while m // q % ell == 0:
                q *= ell
            part[m] = q
            if q < m:
                join[m] = _checked(q * pow(q, -1, m // q), q, m // q)
        # at a = 2^k m, u = 2^(k+1) w with w = h^(k+1) mod m, h = (m+1)/2 the inverse of 2 mod m
        a, low, h = m, 2, (m + 1) // 2
        w = h % m
        while a <= size:
            lift[a] = _checked(low * w, low, m)
            a, low, w = 2 * a, 2 * low, w * h % m
    return _Sieve(size, spf, [m for m in range(3, size + 1, 2) if spf[m] == m], part, join, lift)


def _checked(u: int, q: int, r: int) -> int:
    """u, once u = 0 (mod q) and u = 1 (mod r) hold."""
    if u % q or (u - 1) % r:
        raise InternalCheckError(f"CRT multiplier {u} is not 0 mod {q} and 1 mod {r}")
    return u


def _odd_root_table(disc: int, sieve: _Sieve, amax: int) -> list:
    """odd[m] for odd m <= amax: the x mod m with x^2 = D (mod m), unsorted,
    set here at 1 and at each prime l but a residue l = 1 (mod 4), and None
    elsewhere until `_join_odd_roots` fills it.

    One power decides (D/l): at l = 3 (mod 4) x = D^((l+1)/4) is a root
    exactly when there is one, and at l = 1 (mod 4) Euler's criterion
    D^((l-1)/2) = 1 says whether there are two.  l | D takes its one root
    from `sqrt_mod_prime_power`."""
    odd: list = [None] * (amax + 1)
    odd[1] = [0]
    for ell in sieve.primes[: bisect_right(sieve.primes, amax)]:
        d = disc % ell
        if not d:
            odd[ell] = sqrt_mod_prime_power(disc, ell, 1)
        elif ell & 2:
            x = pow(d, (ell + 1) >> 2, ell)
            odd[ell] = [x, ell - x] if x * x % ell == d else []
        elif pow(d, ell >> 1, ell) != 1:
            odd[ell] = []
    return odd


def _join_odd_roots(disc: int, sieve: _Sieve, odd: list, wanted: Iterable[int]) -> None:
    """Fill odd[m] for each m in `wanted`, and the sets it is joined from,
    where they are None: a prime power l^e from `sqrt_mod_prime_power`
    (none when l has none), any other m = q*r (q = part[m]) one CRT join of
    the sets of q and r by the kept multiplier, so a prime with no root
    empties the sets of all its multiples.  An increasing `wanted` that
    holds every odd m up to a bound finds both sets filled already."""
    spf, part, join = sieve.spf, sieve.part, sieve.join
    for m in wanted:
        if odd[m] is not None:
            continue
        q = part[m]
        if q < m:
            r = m // q
            if odd[q] is None or odd[r] is None:
                _join_odd_roots(disc, sieve, odd, (q, r))
            xs, ys, u = odd[q], odd[r], join[m]
            odd[m] = [(x + (y - x) * u) % m for x in xs for y in ys]
        else:
            ell, e = spf[m], 1
            while ell**e < m:
                e += 1
            odd[m] = sqrt_mod_prime_power(disc, ell, e) if odd[ell] != [] else []


def _roots_with_leading(leading: Iterable[int], two: list[list[int]], odd: list, lift: list[int]):
    """(a, bs) for each a in `leading` with roots: bs the b in (-a, a] with
    b^2 = D (mod 4a), sorted.  For a = 2^k m with m odd they are the CRT join
    of two[k] (mod 2^(k+1)) and odd[m], by the kept multiplier u = lift[a]:
    b + a - 1 = x*(1 - u) + y*u + a - 1 (mod 2a) lies in [0, 2a)."""
    for a in leading:
        k = (a & -a).bit_length() - 1
        xs, ys = two[k], odd[a >> k]
        if xs and ys:
            n, s, u = 2 * a, a - 1, lift[a]
            v = 1 - u
            bs = [(x * v + y * u + s) % n - s for x in xs for y in ys]
            bs.sort()
            yield a, bs


def reduced_forms(disc: int) -> list[Triple]:
    """The primitive reduced forms of a negative discriminant, one per class
    of the order of that discriminant, sorted.

    For each a <= sqrt(|D|/3) the b with b^2 = D (mod 4a) are a set of
    residues mod 2a: with a = 2^k m and m odd, the roots mod 2^(k+2), read
    mod 2^(k+1), joined by CRT to the roots mod m.  The roots mod every odd
    m are joined, over the kept sieve, from the roots mod its prime powers.
    Each root is a form (a, b, c) with c = (b^2 - D)/4a, and c >= a without
    a test while a <= sqrt(|D|/4); above that, c >= a and b >= 0 where
    c = a are tested.  gcd(a, b, c) = 1 is tested only at a non-fundamental
    D.  Cost O(|D|^(1/2+eps)) plus the output (Cohen, GTM 138, sections 1.5
    and 5.3).
    """
    _check_enumerable(disc)
    amax, half = math.isqrt(-disc // 3), math.isqrt(-disc // 4)
    sieve = _sieve(amax)
    two = _two_adic_roots(disc, amax)
    odd = _odd_root_table(disc, sieve, amax)
    _join_odd_roots(disc, sieve, odd, range(3, amax + 1, 2))
    primitive = is_fundamental(disc)
    gcd, forms = math.gcd, []
    for a, bs in _roots_with_leading(range(1, amax + 1), two, odd, sieve.lift):
        a4 = 4 * a
        if a > half:  # c >= a, i.e. b^2 >= 4a^2 + D, and b >= 0 when c = a
            tie = a4 * a + disc
            bs = [b for b in bs if b * b >= tie + (b < 0)]
        if not primitive:
            bs = [b for b in bs if gcd(a, b, (b * b - disc) // a4) == 1]
        forms += [(a, b, (b * b - disc) // a4) for b in bs]
    return forms


def fundamental_class_number(disc: int) -> int:
    """The class number at a fundamental D, |D| under the cap; any other D raises.

    At a fundamental D every form is primitive, and for a <= sqrt(|D|/4)
    every root b in (-a, a] of b^2 = D (mod 4a) gives a reduced form, since
    then c >= a with c = a only at b = 0.  So h adds up the number of those
    roots there, which is multiplicative in a: the 2-adic count times, over
    the odd l^e exactly dividing a, 1 + (D/l) when l does not divide D, 1
    when e = 1 and l | D, and 0 when e > 1 and l | D.  Only the band
    sqrt(|D|/4) < a <= sqrt(|D|/3) finds its roots, and counts those with
    c >= a, and b >= 0 where c = a.  One power per odd prime up to
    sqrt(|D|/3) decides (D/l), the kept sieve gives the rest, and no form
    is built (Cohen, GTM 138, section 5.3).

    Each D is counted once per process: the count is kept in a memo of the
    last `CLASS_NUMBER_MEMO` discriminants, so a sweep or a library loop
    that meets D again reads h back.  A D that raises, a non-fundamental
    one included, is not kept.
    """
    return _fundamental_class_number(disc)


# typed: a non-int D equal to a counted one still raises, as uncached
@functools.lru_cache(maxsize=CLASS_NUMBER_MEMO, typed=True)
def _fundamental_class_number(disc: int) -> int:
    _check_enumerable(disc)
    if not is_fundamental(disc):
        raise ValidationError(f"discriminant {disc} is not fundamental")
    amax, half = math.isqrt(-disc // 3), math.isqrt(-disc // 4)
    sieve = _sieve(amax)
    spf, part = sieve.spf, sieve.part
    two = _two_adic_roots(disc, amax)
    odd = _odd_root_table(disc, sieve, amax)
    # count[m]: the number of x mod m with x^2 = D (mod m) for odd m, 0 at even m
    count = [0, 1] + [0] * (amax - 1)
    for m in range(3, amax + 1, 2):
        q = part[m]
        if q < m:
            count[m] = count[q] * count[m // q]
        elif spf[m] == m:  # a residue l = 1 (mod 4), still None, has two roots
            count[m] = 2 if odd[m] is None else len(odd[m])
        elif disc % spf[m]:
            count[m] = count[spf[m]]
    h = sum(len(two[k]) * sum(count[: (half >> k) + 1]) for k in range(len(two)))
    band = [a for a in range(half + 1, amax + 1) if count[a // (a & -a)] and two[(a & -a).bit_length() - 1]]
    _join_odd_roots(disc, sieve, odd, {a // (a & -a) for a in band})
    for a, bs in _roots_with_leading(band, two, odd, sieve.lift):
        tie = 4 * a * a + disc
        h += sum(b * b >= tie + (b < 0) for b in bs)
    return h


def field_disc(p: int) -> int:
    """-p, the discriminant of Q(sqrt(-p)) for a prime p = 3 (mod 4), p > 3."""
    if p <= 3 or p % 4 != 3 or not is_prime(p):
        raise ValidationError(f"field_disc requires a prime p > 3, p = 3 mod 4, got {p}")
    return -p


def class_order(f: Triple, h: int) -> int:
    """Order of the class of f in the class group of its discriminant.

    `h` is the class number (any multiple of the order will do).  For
    each l^e exactly dividing h, g = f^(h/l^e) is raised to the l until
    it is principal, at most e times; the number of raisings is the
    exponent of l in the order (Cohen, GTM 138, section 1.4).
    O(omega(h) * log h) compositions.
    """
    disc = _positive_definite(f)
    if h < 1:
        raise ValidationError(f"a class number is positive, got {h}")
    t, one = _reduce(*f), _principal(disc)
    primes = factor(h).factors
    if not primes and t != one:  # h = 1: f itself must be principal
        raise InternalCheckError(f"order of {f} does not divide the class number {h}")
    order = 1
    for ell, e in primes:
        g = _pow(t, h // ell**e, disc)
        while g != one:
            if e == 0:
                raise InternalCheckError(f"order of {f} does not divide the class number {h}")
            g, order, e = _pow(g, ell, disc), order * ell, e - 1
    return order


def prime_form(disc: int, q: int) -> Triple:
    """A form in the class of a prime ideal of norm q (q odd; split or ramified).

    At a split q the form is reduced; at a ramified q it is (q, q (D mod 2), c),
    which need not be, e.g. (7, 7, 2) at D = -7."""
    _check_disc(disc)
    if q == 2 or not is_prime(q):
        raise ValidationError(f"prime_form requires an odd prime, got {q}")
    if disc % q == 0:
        # ramified prime: q | b and b = D (mod 2) give the one root b in [0, 2q),
        # left unreduced, e.g. (p, p, (p+1)/4) for disc -p
        b = q * (disc % 2)
        c, rem = divmod(b * b - disc, 4 * q)
        if rem:
            raise InternalCheckError(f"no ramified form above {q} for disc {disc}")
        return q, b, c
    if jacobi(disc, q) != 1:
        raise ValidationError(f"{q} is inert for discriminant {disc}")
    roots = sqrt_mod_prime_power(disc, q, 1)
    if not roots:
        raise InternalCheckError(f"no square root of {disc} mod the split prime {q}")
    b = roots[0]
    if (b - disc) % 2:
        b = q - b
    c, rem = divmod(b * b - disc, 4 * q)
    if rem:
        raise InternalCheckError(f"{b}^2 - ({disc}) is not divisible by 4*{q}")
    return _reduce(q, b, c)
