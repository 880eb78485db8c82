import builtins
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from eisq import arith, classgroup
from eisq.arith import factor, jacobi, sqrt_mod_prime_power, valuation
from eisq.classgroup import (
    MAX_ENUMERATED_DISC,
    _build_sieve,
    _join_odd_roots,
    _normalize,
    _odd_root_table,
    _two_adic_roots,
    class_order,
    compose,
    field_disc,
    fundamental_class_number,
    is_fundamental,
    prime_form,
    reduced_forms,
)
from eisq.errors import InternalCheckError, ResourceCapError, ValidationError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def class_number_of_disc(disc):
    """The class number of the order of discriminant D: the count at a
    fundamental D, the number of listed forms at any other."""
    return fundamental_class_number(disc) if is_fundamental(disc) else len(reduced_forms(disc))


def principal_form(disc):
    """(1, k, (k - D)/4) with k = D mod 2, the principal form of D."""
    k = disc % 2
    return 1, k, (k - disc) // 4


def disc_of(f):
    a, b, c = f
    return b * b - 4 * a * c


def form_pow(f, n):
    """f^n: the reduced form of f, or of its inverse (a, -b, c) when n < 0,
    raised to |n| by squaring on the private kernel.  The package itself
    never powers a prime class: `HeegnerSetup.prime_power_order(k)` reads
    ord(P^k) off ord(P), and this is its oracle."""
    disc = classgroup._positive_definite(f)
    a, b, c = f
    return classgroup._pow(classgroup._reduce(a, -b if n < 0 else b, c), abs(n), disc)


def reduce_form(f):
    """The reduced representative of the class of f: its first power."""
    return form_pow(f, 1)


def inverse(f):
    return form_pow(f, -1)


def test_class_number_examples():
    assert [fundamental_class_number(field_disc(p)) for p in (7, 23, 47)] == [1, 3, 5]
    assert reduced_forms(-23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert reduced_forms(-47) == [
        (1, 1, 12),
        (2, -1, 6),
        (2, 1, 6),
        (3, -1, 4),
        (3, 1, 4),
    ]
    with pytest.raises(ValidationError):
        field_disc(4)
    with pytest.raises(ValidationError):
        field_disc(13)
    with pytest.raises(ValidationError, match="not fundamental"):
        fundamental_class_number(-36)


def _reduced_forms_by_loop(disc):
    """The primitive reduced forms by the O(|D|) double loop over (b, a)."""
    forms = []
    for b in range(disc % 2, math.isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(a, b, c) == 1:
                    forms.append((a, b, c))
                    if b and b != a and a != c:
                        forms.append((a, -b, c))
            a += 1
    return sorted(forms)


def test_reduced_forms_against_loop():
    # every negative discriminant with |D| < 20000, fundamental or not
    for disc in range(-3, -20000, -1):
        if disc % 4 in (0, 1):
            assert reduced_forms(disc) == _reduced_forms_by_loop(disc), disc


# prime-power-rich discriminants, and prime ones near 10^6 and 10^7
LARGE_DISCS = (
    -4 * 3**6 * 7,
    -3 * 5**4 * 11**2,
    -(2**8) * 23,
    -(2**12) * 7,
    -4 * 3**10,
    -3 * 7**6,
    -8 * 5**6,
    -3 * 2**20,
    -999983,
    -1000004,
    -9983951,
    -9999991,
)


def test_reduced_forms_against_loop_large():
    for disc in LARGE_DISCS:
        assert reduced_forms(disc) == _reduced_forms_by_loop(disc), disc


def test_two_adic_roots_against_direct_lifts():
    # each level of the incremental chain equals the roots mod 2^(k+2) from 2 up
    for disc in (-3, -4, -7, -8, -15, -20, -23, -24, -39, -40, -84) + LARGE_DISCS:
        amax = math.isqrt(-disc // 3)
        two = _two_adic_roots(disc, amax)
        assert len(two) == amax.bit_length()
        for k, roots in enumerate(two):
            assert roots == sorted({r % (2 << k) for r in sqrt_mod_prime_power(disc, 2, k + 2)}), (disc, k)


# small discriminants of each kind, and non-fundamental ones near 10^6 with
# forms of gcd 2, 3 and 5 among the roots
SMALL_DISCS = (-3, -4, -7, -8, -15, -20, -36)
GCD_DISCS = (-4 * 3**2 * 7, -(5**2) * 23, -(6**2) * 31, -4 * 10**6, -3999996 // 4, -(3**2) * 111107)


def _roots_leaving_gcd(disc):
    """The (a, b) with -a < b <= a, a <= sqrt(|D|/3), b^2 = D (mod 4a) and gcd(a, b, c) > 1."""
    return [
        (a, b)
        for a in range(1, math.isqrt(-disc // 3) + 1)
        for b in range(-a + 1, a + 1)
        if (b * b - disc) % (4 * a) == 0 and math.gcd(a, b, (b * b - disc) // (4 * a)) > 1
    ]


def test_reduced_forms_small_and_imprimitive():
    for disc in SMALL_DISCS + GCD_DISCS:
        forms = reduced_forms(disc)
        assert forms == _reduced_forms_by_loop(disc), disc
        assert all(math.gcd(*f) == 1 for f in forms), disc
        assert class_number_of_disc(disc) == len(forms), disc
        if is_fundamental(disc):
            assert fundamental_class_number(disc) == len(forms), disc
    assert [disc for disc in SMALL_DISCS if not is_fundamental(disc)] == [-36]
    for disc in (-36,) + GCD_DISCS:
        assert not is_fundamental(disc) and _roots_leaving_gcd(disc), disc
    assert reduced_forms(-36) == [(1, 0, 9), (2, 2, 5)]  # (3, 0, 3) has gcd 3


def test_band_edge_ties():
    # D = b^2 - 4a^2 with 0 < b < a puts (a, b, a) in the band
    # sqrt(|D|/4) < a <= sqrt(|D|/3): it is reduced, (a, -b, a) is not, and
    # the count leaves (a, -b, a) out too
    for a, b in ((2, 1), (3, 1), (3, 2), (5, 3), (7, 5), (11, 4)):
        disc = b * b - 4 * a * a
        forms = reduced_forms(disc)
        assert (a, b, a) in forms and (a, -b, a) not in forms, disc
        assert forms == _reduced_forms_by_loop(disc), disc
        assert class_number_of_disc(disc) == len(forms), disc
    assert reduced_forms(-15) == [(1, 1, 4), (2, 1, 2)]


def test_odd_root_table_against_brute_force():
    # the whole table, and a few entries together with the sets they are joined from
    sieve = _build_sieve(300)
    for disc in (-3, -4, -23, -84, -4375, -4 * 3**6 * 7, -3 * 5**4 * 11**2, -999983):
        want = {m: sorted(x for x in range(m) if (x * x - disc) % m == 0) for m in range(1, 301, 2)}
        full = _odd_root_table(disc, sieve, 300)
        _join_odd_roots(disc, sieve, full, range(3, 301, 2))
        assert {m: sorted(full[m]) for m in range(1, 301, 2)} == want, disc
        part = _odd_root_table(disc, sieve, 300)
        _join_odd_roots(disc, sieve, part, [225, 231, 289])
        for m in (225, 9, 25, 231, 3, 77, 7, 11, 289):
            assert part[m] is not None and sorted(part[m]) == want[m], (disc, m)
        # no set is joined that no wanted one is joined from; 121 = 11^2 is a prime power
        assert [part[m] for m in (15, 45, 121, 299)] == [None] * 4, disc


def test_prime_decisions_are_jacobi_symbols():
    # one power per prime: a non-residue gets no root, l | D the root 0, a
    # residue l = 3 (mod 4) the two roots of that power, and a residue
    # l = 1 (mod 4) is left for sqrt_mod_prime_power
    sieve = _build_sieve(20000)
    assert sieve.primes[-1] == 19997 and len(sieve.primes) == 2261
    rng = random.Random(34)
    kinds = {}
    for _ in range(50):
        disc = -rng.randrange(3, MAX_ENUMERATED_DISC)
        odd = _odd_root_table(disc, sieve, 20000)
        for ell in sieve.primes:
            xs = odd[ell]
            chi = 1 if xs is None else len(xs) - 1
            assert chi == jacobi(disc, ell), (disc, ell)
            assert xs is None or all((x * x - disc) % ell == 0 for x in xs), (disc, ell)
            kind = (ell % 4, chi, xs is None)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert sorted(kinds) == [(1, -1, False), (1, 0, False), (1, 1, True), (3, -1, False), (3, 0, False), (3, 1, False)]


def _cold(disc):
    """The list and, at a fundamental D, the count, from a sieve built for D alone."""
    classgroup._kept.clear()
    forms = reduced_forms(disc)
    classgroup._kept.clear()
    return forms, classgroup._fundamental_class_number.__wrapped__(disc) if is_fundamental(disc) else None


def test_kept_sieve_prefix_equals_a_cold_sieve():
    # after a large D has grown the sieve, a small D reads a prefix of it
    # and lists and counts exactly what a sieve built for it alone gives
    discs = [d for d in range(-3, -4000, -1) if d % 4 in (0, 1)] + [-999983, -1000004, -4 * 3**10]
    cold = {d: _cold(d) for d in discs}
    classgroup._kept.clear()
    assert len(reduced_forms(-9999991)) == len(_reduced_forms_by_loop(-9999991))
    assert classgroup._kept[0].size == 2048
    for d in discs:
        count = classgroup._fundamental_class_number.__wrapped__(d) if is_fundamental(d) else None
        assert (reduced_forms(d), count) == cold[d], d
    assert classgroup._kept[0].size == 2048


def test_sweep_builds_the_sieve_once_per_power_of_two(monkeypatch):
    built = []
    build = classgroup._build_sieve
    monkeypatch.setattr(classgroup, "_build_sieve", lambda size: built.append(size) or build(size))
    rng = random.Random(34)
    sweep = sorted((-rng.randrange(10**e, 10**(e + 1)) for e in range(3, 7) for _ in range(6)), reverse=True)
    sweep += [-10**7 - 19, -3 * 2048**2]  # sqrt(|D|/3) = 2048 exactly: the size, no rebuild
    for disc in sweep:
        if disc % 4 in (0, 1):
            reduced_forms(disc)
            if is_fundamental(disc):
                fundamental_class_number(disc)
    sizes = {1 << (math.isqrt(-d // 3) - 1).bit_length() for d in sweep if d % 4 in (0, 1)}
    assert built == sorted(set(built)) and set(built) <= sizes and built[-1] == 2048
    # going back down builds nothing: every smaller D reads a prefix
    first = list(built)
    for disc in sweep[::-1]:
        if disc % 4 in (0, 1):
            reduced_forms(disc)
            classgroup._fundamental_class_number.cache_clear()
            if is_fundamental(disc):
                fundamental_class_number(disc)
    assert built == first


def test_kept_sieve_stops_at_the_cap():
    # past 2^14 the next power of two would be 32768; the sieve stops at the
    # largest a that any D under the cap needs
    cap = math.isqrt(MAX_ENUMERATED_DISC // 3)
    assert cap == 18257
    disc = next(d for d in range(-MAX_ENUMERATED_DISC, 0) if d % 4 in (0, 1) and is_fundamental(d))
    assert math.isqrt(-disc // 3) == cap
    h = fundamental_class_number(disc)
    assert classgroup._kept[0].size == cap
    assert len(classgroup._kept[0].lift) == cap + 1
    assert h == len(reduced_forms(disc)) and classgroup._kept[0].size == cap
    disc = -3 * (2**14 + 1) ** 2  # sqrt(|D|/3) = 2^14 + 1, past the 2^14 sieve
    classgroup._kept.clear()
    reduced_forms(-3 * 2**28)
    assert classgroup._kept[0].size == 2**14
    reduced_forms(disc)
    assert classgroup._kept[0].size == cap


def _is_fundamental_by_definition(disc):
    """No square f^2 > 1 leaves a discriminant D / f^2 = 0, 1 (mod 4)."""
    return all(
        (disc // (f * f)) % 4 not in (0, 1)
        for f in range(2, math.isqrt(-disc) + 1)
        if disc % (f * f) == 0
    )


def test_is_fundamental_against_definition():
    fundamental = 0
    for disc in range(-3, -20000, -1):
        if disc % 4 in (0, 1):
            want = _is_fundamental_by_definition(disc)
            assert is_fundamental(disc) == want, disc
            fundamental += want
    assert fundamental == 6079
    with pytest.raises(ValidationError):
        is_fundamental(-5)


def test_is_fundamental_against_factor_large():
    # squares of primes above the cube root, products of two large primes,
    # and random discriminants up to the cap, against the factorization
    p, q = 10007, 10009
    for disc in (-3 * p * p, -8 * p * p, -7 * 31607**2, -p * q, -24 * p * q, -20 * p * p, -(q**2) * p):
        assert disc % 4 in (0, 1) and is_fundamental(disc) == _is_fundamental(disc), disc
    rng = random.Random(4)
    for _ in range(3000):
        disc = -rng.randrange(3, MAX_ENUMERATED_DISC)
        if disc % 4 in (0, 1):
            assert is_fundamental(disc) == _is_fundamental(disc), disc


def test_class_number_count_against_enumeration():
    # every fundamental |D| < 20000: the root count below sqrt(|D|/4) plus the
    # listed band must equal the number of enumerated forms
    for disc in range(-3, -20000, -1):
        if disc % 4 in (0, 1) and is_fundamental(disc):
            assert class_number_of_disc(disc) == len(reduced_forms(disc)), disc


def test_class_number_count_against_enumeration_large():
    # the large list (non-fundamental ones take the enumeration), and random
    # fundamental discriminants up to 10^8
    rng = random.Random(8)
    discs = list(LARGE_DISCS)
    while len(discs) < len(LARGE_DISCS) + 12:
        disc = -rng.randrange(10**4, 10**8)
        if disc % 4 in (0, 1) and is_fundamental(disc):
            discs.append(disc)
    for disc in discs:
        assert class_number_of_disc(disc) == len(reduced_forms(disc)), disc
    assert class_number_of_disc(-9983951) == 6368


def _transform(f, alpha, beta, gamma, delta):
    # action of the SL2(Z) matrix [[alpha, beta], [gamma, delta]]
    assert alpha * delta - beta * gamma == 1
    a, b, c = f
    a2 = a * alpha * alpha + b * alpha * gamma + c * gamma * gamma
    b2 = 2 * a * alpha * beta + b * (alpha * delta + beta * gamma) + 2 * c * gamma * delta
    c2 = a * beta * beta + b * beta * delta + c * delta * delta
    return a2, b2, c2


def _coprime_representative(f, m):
    """An SL2(Z)-equivalent form whose leading coefficient is coprime to m."""
    a, b, c = f
    if math.gcd(a, m) == 1:
        return f
    # CRT a primitive vector (x, y) with f(x, y) nonzero mod every prime of m
    x, y, modulus = 0, 1, 1
    for ell, _ in factor(m).factors:
        for xe, ye in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)):
            if (a * xe * xe + b * xe * ye + c * ye * ye) % ell:
                break
        else:  # primitive forms are nonzero mod every prime
            raise AssertionError(f"{f} vanishes identically mod {ell}")
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
    assert math.gcd(out[0], m) == 1 and disc_of(out) == disc_of(f)
    return out


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _compose_by_coprime_representative(f1, f2):
    """Dirichlet composition on united representatives: replace f2 by an
    equivalent form with leading coefficient coprime to a1, pick the common
    middle coefficient B = b1 (mod 2a1), B = b2 (mod 2a2), and compose to
    (a1*a2, B, (B^2-D)/(4*a1*a2)); then reduce."""
    disc = disc_of(f1)
    a1, b1, _ = reduce_form(f1)
    a2, b2, _ = _coprime_representative(reduce_form(f2), a1)
    assert math.gcd(a1, a2) == 1 and (b1 - b2) % 2 == 0
    k = (b2 - b1) // 2 * pow(a1, -1, a2) % a2
    bb = b1 + 2 * a1 * k
    a3 = a1 * a2
    assert (bb * bb - disc) % (4 * a3) == 0
    return reduce_form((a3, bb, (bb * bb - disc) // (4 * a3)))


def test_compose_against_coprime_representative():
    # random pairs of primitive forms, reduced or not, over fundamental and
    # non-fundamental discriminants
    rng = random.Random(3)
    checked = nonfundamental = 0
    discs = [-rng.randrange(3, 10**6) for _ in range(400)] + list(LARGE_DISCS[:8])
    for disc in discs:
        if disc % 4 not in (0, 1):
            continue
        forms = reduced_forms(disc)
        nonfundamental += not is_fundamental(disc)
        for _ in range(15):
            f1, f2 = rng.choice(forms), rng.choice(forms)
            if rng.random() < 0.3:  # an unreduced representative of the same class
                t = rng.randrange(-3, 4)
                a, b, c = f2
                f2 = (a, b + 2 * t * a, a * t * t + b * t + c)
            assert compose(f1, f2) == _compose_by_coprime_representative(f1, f2), (f1, f2)
            checked += 1
    assert checked > 2500 and nonfundamental > 20


def test_compose_identity_and_inverse():
    for disc in (-7, -23, -47, -71):
        one = principal_form(disc)
        for f in reduced_forms(disc):
            assert compose(one, f) == reduce_form(f)
            assert compose(f, inverse(f)) == one


def test_compose_example():
    assert compose((2, 1, 3), (2, 1, 3)) == (2, -1, 3)


def test_group_laws_random_triples():
    rng = random.Random(1)
    for disc in (-7, -23, -31, -47, -71, -79):
        forms = reduced_forms(disc)
        for _ in range(200):
            f1, f2, f3 = (rng.choice(forms) for _ in range(3))
            assert compose(f1, f2) == compose(f2, f1)
            assert compose(compose(f1, f2), f3) == compose(f1, compose(f2, f3))


def test_compose_rejects_disc_mismatch():
    with pytest.raises(ValidationError):
        compose(principal_form(-7), principal_form(-23))


def test_class_order():
    assert class_order(principal_form(-23), 3) == 1
    assert class_order((2, 1, 3), 3) == 3
    assert class_order((7, 7, 2), 1) == 1
    for p in (7, 23, 31, 47, 71, 79):
        h = class_number_of_disc(-p)
        assert h % 2 == 1  # genus theory for prime discriminants
        for f in reduced_forms(-p):
            assert h % class_order(f, h) == 0


def _orders_by_stepping(forms):
    """Orders of the given classes by composing until the principal form.

    One cycle f, f^2, ..., f^k = 1 also gives the order k / gcd(j, k) of
    each power f^j on it, so each cycle is walked once."""
    known = {}
    for f in forms:
        if f in known:
            continue
        one = principal_form(disc_of(f))
        powers = [reduce_form(f)]
        while powers[-1] != one:
            powers.append(compose(powers[-1], f))
        k = len(powers)
        for j, g in enumerate(powers, start=1):
            known.setdefault(g, k // math.gcd(j, k))
    return known


# |D| up to 10^5 whose class number has repeated prime factors: h = 288,
# 288, 216, 432 and 144, each a multiple of 72 = 8 * 9; -99567 and -99008
# are not fundamental
RICH_ORDER_DISCS = (-60119, -99111, -99567, -99935, -99008)


def test_class_order_against_stepping():
    # every primitive reduced form with |D| < 2000, then every form of the
    # discriminants above, given h
    checked = 0
    for disc in range(-3, -2000, -1):
        if disc % 4 not in (0, 1):
            continue
        forms = reduced_forms(disc)
        want = _orders_by_stepping(forms)
        for f in forms:
            assert class_order(f, len(forms)) == want[f], (disc, f)
            checked += 1
    assert checked > 12000
    orders = set()
    for disc in RICH_ORDER_DISCS:
        forms = reduced_forms(disc)
        h = len(forms)
        assert h % 72 == 0, (disc, h)
        want = _orders_by_stepping(forms)
        for f in forms:
            assert class_order(f, h) == want[f], (disc, f)
            assert class_order(f, 35 * h) == want[f], (disc, f)
            orders.add(want[f])
    assert {16, 32, 9, 27, 108, 288} <= orders


def test_class_order_rejects_a_non_multiple_of_the_order():
    # h = 1, o/l, and h with its l-part cut to one below the order's, for
    # every prime l of the order o, on forms of the discriminants above
    for disc in RICH_ORDER_DISCS:
        forms = reduced_forms(disc)
        want = _orders_by_stepping(forms)
        for f in forms[:: max(1, len(forms) // 40)] + [max(forms, key=want.get)]:
            o, h = want[f], len(forms)
            bad = [1] if o > 1 else []
            for ell, e in factor(o).factors:
                bad += [o // ell, h // ell ** valuation(h, ell) * ell ** (e - 1)]
            for wrong in bad:
                with pytest.raises(InternalCheckError):
                    class_order(f, wrong)
    assert class_order(principal_form(-99008), 1) == 1
    with pytest.raises(ValidationError):
        class_order((2, 1, 3), 0)


def _kronecker(d, ell):
    if ell == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    return jacobi(d, ell)


def _is_fundamental(d):
    if d % 4 == 1:
        return factor(d).is_squarefree()
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and factor(d // 4).is_squarefree()


def _fundamental_part(disc):
    """(D, f) with disc = D*f^2 and D a fundamental discriminant."""
    f = next(
        f
        for f in range(math.isqrt(-disc), 0, -1)
        if disc % (f * f) == 0 and _is_fundamental(disc // (f * f))
    )
    return disc // (f * f), f


def test_class_numbers_of_orders():
    # h(D f^2) = h(D) f / [O_K^x : O^x] * prod_{l | f} (1 - (D/l)/l)
    assert [class_number_of_disc(d) for d in (-36, -48, -63, -144)] == [2, 2, 4, 4]
    assert reduced_forms(-36) == [(1, 0, 9), (2, 2, 5)]
    checked = 0
    for disc in range(-3, -2000, -1):
        if disc % 4 not in (0, 1):
            continue
        d, f = _fundamental_part(disc)
        if f == 1:
            continue
        want = Fraction(class_number_of_disc(d) * f, {-3: 3, -4: 2}.get(d, 1))
        for ell, _ in factor(f).factors:
            want *= 1 - Fraction(_kronecker(d, ell), ell)
        assert class_number_of_disc(disc) == want, (disc, d, f)
        checked += 1
    assert checked > 300


def test_reduced_forms_cap():
    assert MAX_ENUMERATED_DISC == 10**9
    with pytest.raises(ResourceCapError):
        reduced_forms(-(10**9) - 3)


def test_class_order_rejects_wrong_class_number():
    with pytest.raises(InternalCheckError):
        class_order((2, 1, 3), 2)  # the class has order 3, h(-23) = 3


def test_prime_form_examples():
    assert prime_form(-7, 7) == (7, 7, 2)
    assert prime_form(-7, 11) == (1, 1, 2)
    f3 = prime_form(-23, 3)
    assert disc_of(f3) == -23 and f3[0] in (2, 3)
    with pytest.raises(ValidationError):
        prime_form(-7, 5)  # inert


def _ramified_form_by_loop(disc, q):
    for b in range(0, 2 * q):
        if (b - disc) % 2 == 0 and (b * b - disc) % (4 * q) == 0:
            return q, b, (b * b - disc) // (4 * q)


def test_prime_form_ramified():
    # q | D: b = 0 for even D and b = q for odd D, the first root the walk over [0, 2q) finds
    checked = 0
    for q in range(3, 200, 2):
        if not arith.is_prime(q):
            continue
        for disc in (-q, -4 * q, -8 * q, -3 * q, -q * q * 3, -7 * q, -20 * q, -q**3):
            if disc % 4 in (0, 1):
                assert prime_form(disc, q) == _ramified_form_by_loop(disc, q), (disc, q)
                checked += 1
    assert checked > 200
    q = 100000007
    for disc in (-q, -4 * q, -8 * q):
        f = prime_form(disc, q)
        assert f[:2] == (q, q * (disc % 2)) and disc_of(f) == disc, disc


def test_prime_form_ramified_check_raises(monkeypatch):
    # with the discriminant check passed over, 3 | -21 but -21 = 3 (mod 4) has no form
    monkeypatch.setattr(classgroup, "_check_disc", lambda disc: None)
    with pytest.raises(InternalCheckError):
        prime_form(-21, 3)


def test_prime_form_norm_compatibility():
    # for class number one fields split primes give principal classes,
    # equivalently q is a norm: cross-checked against the norm equation
    # s^2 + p*t^2 = 4q, by an exhaustive t-sweep at inert q and by the
    # Cornacchia step at split q
    from eisq.arith import cornacchia, is_prime, sqrt_mod_prime_power

    for p in (7, 11, 19, 43, 67, 163):
        assert class_number_of_disc(-p) == 1
        for q in range(3, 80, 2):
            if not is_prime(q) or q == p:
                continue
            try:
                f = prime_form(-p, q)
            except ValidationError:
                # inert: q is not a norm
                rems = [4 * q - p * t * t for t in range(math.isqrt(4 * q // p) + 1)]
                assert all(math.isqrt(r) ** 2 != r for r in rems)
                continue
            assert reduce_form(f) == principal_form(-p)
            assert cornacchia(p, sqrt_mod_prime_power(-p, q, 1)[0], q) is not None


def test_prime_form_represents_its_prime():
    # the composite of two split prime classes represents the product
    def represents(f, n, box=40):
        a, b, c = f
        return any(
            a * x * x + b * x * y + c * y * y == n
            for x in range(-box, box)
            for y in range(-box, box)
        )

    for disc, q1, q2 in ((-23, 3, 13), (-47, 3, 7), (-71, 3, 5)):
        f = compose(prime_form(disc, q1), prime_form(disc, q2))
        assert represents(f, q1 * q2)


def test_class_order_against_primitive_representations():
    # the order of a split prime class is the least k such that q^k has a
    # primitive representation by the principal form (brute-force search)
    import math

    def principal_represents_primitively(disc, n, box=200):
        c0 = (0 if disc % 2 == 0 else 1, (0 - disc) // 4 if disc % 2 == 0 else (1 - disc) // 4)
        b0, c = c0
        for x in range(-box, box + 1):
            for y in range(-box, box + 1):
                if math.gcd(x, y) == 1 and x * x + b0 * x * y + c * y * y == n:
                    return True
        return False

    for disc, q in ((-23, 3), (-23, 2), (-31, 5), (-47, 3), (-7, 11)):
        if q == 2:
            continue  # prime_form handles odd primes only
        order = class_order(prime_form(disc, q), class_number_of_disc(disc))
        for k in range(1, order):
            assert not principal_represents_primitively(disc, q**k), (disc, q, k)
        assert principal_represents_primitively(disc, q**order), (disc, q, order)


def test_forms_are_int_triples():
    # every public function that returns a form returns an exact tuple of
    # three ints, and those tuples key the stepping table
    forms = reduced_forms(-47)
    known = _orders_by_stepping(forms)
    assert set(known) == set(forms) and known[(3, 1, 4)] == 5
    made = [compose(forms[1], forms[3])] + [form_pow(forms[1], n) for n in (-1, 0, 1, 2)] + [prime_form(-47, 7)]
    for g in forms + made + [prime_form(-7, 7)]:  # the last one ramified, left unreduced
        assert type(g) is tuple and len(g) == 3 and all(type(x) is int for x in g), g
    assert [known[g] for g in made] == [5, 5, 1, 5, 5, 5]


def test_normalize():
    # -a < b <= a by a translation x -> x + r*y: same a, same discriminant,
    # same class, and the same form when b is already in range
    for f in ((2, 5, 6), (3, -7, 5), (5, 5, 7), (5, -5, 7), (4, -13, 11), (2, 1, 3)):
        g = _normalize(*f)
        assert -g[0] < g[1] <= g[0] == f[0] and disc_of(g) == disc_of(f), (f, g)
        assert reduce_form(g) == reduce_form(f)
        if -f[0] < f[1] <= f[0]:
            assert g == f
    # form_pow and compose take positive definite forms only
    for bad in ((0, 1, 3), (1, 3, 1), (-2, 1, -3)):
        with pytest.raises(ValidationError):
            form_pow(bad, 1)
        with pytest.raises(ValidationError):
            compose(bad, bad)


def test_reduce_form_postcondition_raises(monkeypatch):
    # a normalization step that does nothing leaves (1, 5, 10) unreduced
    monkeypatch.setattr(classgroup, "_normalize", lambda a, b, c: (a, b, c))
    with pytest.raises(InternalCheckError):
        form_pow((1, 5, 10), 1)


def test_prime_form_checks_its_root(monkeypatch):
    # 1 is the root of -47 mod 3; a wrong root or none must not give a form
    monkeypatch.setattr(classgroup, "sqrt_mod_prime_power", lambda a, q, e: [0])
    with pytest.raises(InternalCheckError):
        prime_form(-47, 3)
    monkeypatch.setattr(classgroup, "sqrt_mod_prime_power", lambda a, q, e: [])
    with pytest.raises(InternalCheckError):
        prime_form(-47, 3)


def test_form_checks_run_under_optimize():
    # the checks are raises, not asserts, so python -O keeps them
    code = (
        "from eisq import classgroup as cg\n"
        "from eisq.errors import InternalCheckError\n"
        "cg.sqrt_mod_prime_power = lambda a, q, e: [0]\n"
        "try:\n"
        "    cg.prime_form(-47, 3)\n"
        "except InternalCheckError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


def _wrong_inverse(x, e, m):
    """pow, one off wherever it inverts."""
    return builtins.pow(x, e, m) + (e == -1)


def test_sieve_checks_its_multipliers(monkeypatch):
    # a wrong multiplier raises while the sieve is built, and no sieve that
    # holds one is kept: the one built before stays.  The sieve of -47 (a <= 4)
    # has no composite odd m, the one of -479 (a <= 16) has 15 = 3 * 5
    assert reduced_forms(-47) == [(1, 1, 12), (2, -1, 6), (2, 1, 6), (3, -1, 4), (3, 1, 4)]
    kept = classgroup._kept[0]
    monkeypatch.setattr(classgroup, "pow", _wrong_inverse, raising=False)
    for disc in (-479, -9999991):
        with pytest.raises(InternalCheckError, match="^CRT multiplier 9 is not 0 mod 3 and 1 mod 5$"):
            reduced_forms(disc)
        with pytest.raises(InternalCheckError, match="^CRT multiplier 9 is not 0 mod 3 and 1 mod 5$"):
            fundamental_class_number(disc)
        assert classgroup._kept == [kept]
    assert reduced_forms(-47) == [(1, 1, 12), (2, -1, 6), (2, 1, 6), (3, -1, 4), (3, 1, 4)]
    # every multiplier goes through the check once: one per composite odd m,
    # and one per a, where a 2-adic multiplier that is 1 mod m raises too
    monkeypatch.undo()
    checked, real = [], classgroup._checked
    monkeypatch.setattr(classgroup, "_checked", lambda u, q, r: checked.append((q, r)) or real(u, q, r))
    sieve = _build_sieve(64)
    joins = [(sieve.part[m], m // sieve.part[m]) for m in range(3, 65, 2) if sieve.part[m] < m]
    lifts = [(2 * (a & -a), a // (a & -a)) for a in range(1, 65)]
    assert sorted(checked) == sorted(joins + lifts) and len(joins) == 10
    with pytest.raises(InternalCheckError, match="^CRT multiplier 8 is not 0 mod 4 and 1 mod 3$"):
        real(8, 4, 3)


def test_sieve_checks_run_under_optimize():
    # the multiplier check is a raise, not an assert, so python -O keeps it
    code = (
        "import builtins\n"
        "from eisq import classgroup as cg\n"
        "from eisq.errors import InternalCheckError\n"
        "cg.pow = lambda x, e, m: builtins.pow(x, e, m) + (e == -1)\n"
        "try:\n"
        "    cg.reduced_forms(-479)\n"
        "except InternalCheckError:\n"
        "    print('raised', cg._kept)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "raised []\n"


def test_form_enumeration_tests_no_primality(monkeypatch):
    # the roots mod each odd prime come from the sieve's primes, and
    # arith.sqrt_mod_prime_power tests no primality, so neither the list
    # nor the count re-tests them
    calls = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for disc in (-999983, -1000003):
        assert is_fundamental(disc)
        assert fundamental_class_number(disc) == len(reduced_forms(disc))
    assert calls == []


def test_form_pow():
    f = (2, 1, 3)
    assert form_pow(f, 0) == principal_form(-23)
    assert form_pow(f, 3) == principal_form(-23)
    assert form_pow(f, -1) == (2, -1, 3)
    assert form_pow(f, 2) == compose(f, f)
