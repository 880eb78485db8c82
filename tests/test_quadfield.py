import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisq.arith import is_prime, jacobi, sqrt_mod_prime_power, valuation
from eisq.classgroup import fundamental_class_number
from eisq import quadfield
from eisq.errors import InternalCheckError, ValidationError
from eisq.quadfield import (
    INERT,
    RAMIFIED,
    SPLIT_CONJUGATE,
    SPLIT_FACTOR,
    FieldCtx,
    classify_prime,
    is_local_square,
    _local_data,
    norm,
    places_above,
    split_generator,
)

CTX7 = FieldCtx(7)
# sqrt(-p) = 2w - 1 and its negative, as (a, b) pairs for a + b*w
PI, NEG_PI = (-1, 2), (1, -2)


def mul(ctx, x, y):
    """(a + b*w)(c + d*w) in Z[w], where w^2 = w - (1+p)/4."""
    (a, b), (c, d) = x, y
    return (a * c - b * d * ((1 + ctx.p) // 4), a * d + b * c + b * d)


def conjugate(x):
    a, b = x
    return (a + b, -b)


def residue_symbol(ctx, x, v):
    """The quadratic residue symbol of x in the residue field at v, read
    off its local data; x must be a unit at v."""
    val, sym = _local_data(ctx, x, v)
    assert val == 0, (x, v)
    return sym


def inert_primes(ctx, bound):
    return [
        q
        for q in range(3, bound, 2)
        if is_prime(q) and q != ctx.p and classify_prime(ctx, q) == INERT
    ]


def split_primes(ctx, bound):
    return [
        q
        for q in range(3, bound, 2)
        if is_prime(q) and q != ctx.p and classify_prime(ctx, q) == "split"
    ]


def places_containing(ctx, q, x):
    """The places above the split prime q at which x reduces to 0."""
    a, b = x
    return [v for v in places_above(ctx, q) if (a + b * v.omega_residue) % q == 0]


def test_ctx_validation():
    with pytest.raises(ValidationError):
        FieldCtx(13)  # 1 mod 4
    with pytest.raises(ValidationError):
        FieldCtx(3)
    with pytest.raises(ValidationError):
        FieldCtx(15)


def test_ring_operations():
    x = (1, 2)
    assert norm(CTX7, x) == 11
    assert conjugate(x) == (3, -2)
    assert conjugate(conjugate(x)) == x
    assert mul(CTX7, x, conjugate(x)) == (11, 0)
    assert mul(CTX7, PI, PI) == (-7, 0)
    assert norm(CTX7, (0, 0)) == 0


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(a, b, c, d):
    x, y = (a, b), (c, d)
    assert norm(CTX7, mul(CTX7, x, y)) == norm(CTX7, x) * norm(CTX7, y)


def test_norm_multiplicative_bulk():
    rng = random.Random(12)
    ctx = FieldCtx(23)
    for _ in range(1000):
        x = (rng.randrange(-10**4, 10**4), rng.randrange(-10**4, 10**4))
        y = (rng.randrange(-10**4, 10**4), rng.randrange(-10**4, 10**4))
        assert norm(ctx, mul(ctx, x, y)) == norm(ctx, x) * norm(ctx, y)


def test_classify_examples():
    assert classify_prime(CTX7, 11) == "split"
    assert classify_prime(CTX7, 5) == INERT
    assert classify_prime(CTX7, 3) == INERT
    with pytest.raises(ValidationError):
        classify_prime(CTX7, 7)
    with pytest.raises(ValidationError):
        classify_prime(CTX7, 2)


def test_places_above():
    ram = places_above(CTX7, 7)
    assert len(ram) == 1 and ram[0].kind == RAMIFIED
    spl = places_above(CTX7, 11)
    assert [v.kind for v in spl] == [SPLIT_FACTOR, SPLIT_CONJUGATE]
    assert (spl[0].omega_residue + spl[1].omega_residue) % 11 == 1
    ine = places_above(CTX7, 5)
    assert len(ine) == 1 and ine[0].kind == INERT and ine[0].omega_residue is None
    with pytest.raises(ValidationError):
        places_above(CTX7, 2)


def test_omega_roots_check_their_root(monkeypatch):
    # the roots of w mod a split q come from the smaller square root of -p;
    # no root, or the root 0, which gives one double root, must not make places
    assert quadfield._omega_roots(CTX7, 11) == (5, 7)  # z^2 - z + 2 = (z - 5)(z - 7) mod 11
    monkeypatch.setattr(quadfield, "sqrt_mod_prime_power", lambda a, q, e: [])
    with pytest.raises(InternalCheckError, match="^no square root of -7 mod the split prime 11$"):
        places_above(CTX7, 11)
    monkeypatch.setattr(quadfield, "sqrt_mod_prime_power", lambda a, q, e: [0])
    with pytest.raises(InternalCheckError, match=r"^roots 6, 6 of w mod 11 are not a conjugate pair \(p = 7\)$"):
        places_above(CTX7, 11)


def test_split_generator_examples():
    assert split_generator(CTX7, 11, 1) == (1, 2)
    assert split_generator(CTX7, 29, 1) == (-3, 4)
    ctx23 = FieldCtx(23)
    a, b = f13 = split_generator(ctx23, 13, 3)
    assert norm(ctx23, f13) == 13**3 and a % 4 == 1 and valuation(b, 2) >= 2


def test_split_generator_normalization_sweep():
    for p, h in ((7, 1), (23, 3), (31, 3)):
        ctx = FieldCtx(p)
        for q in split_primes(ctx, 300):
            f = split_generator(ctx, q, h)
            g = old_split_generator(ctx, q, h, True)  # the other normalized candidate
            for a, b in (f, g):
                assert norm(ctx, (a, b)) == q**h
                assert a % 4 == 1
                if q % 4 == 3:
                    assert valuation(b, 2) == 1
                else:
                    assert valuation(b, 2) >= 2
            # the two choices generate conjugate prime powers
            assert len(places_containing(ctx, q, f)) == len(places_containing(ctx, q, g)) == 1
            assert places_containing(ctx, q, f) != places_containing(ctx, q, g)


def old_split_generator(ctx, q, h, conjugate_choice):
    """The generator search that the single Cornacchia step replaced, as the
    oracle: solutions of s^2 + p*t^2 = 4q^h from the whole Euclid remainder
    chain of both square roots of -p mod q^h, then, at q^h <= 4*10^8, the
    exhaustive t-sweep; the first primitive solution gives the candidates,
    chosen as split_generator documents."""
    p, m = ctx.p, q**h
    bound = math.isqrt(4 * m)
    sols = []
    for r in sqrt_mod_prime_power(-p, q, h):
        a, b = 2 * m, r if r % 2 else 2 * m - r
        while b:
            if b <= bound and (4 * m - b * b) % p == 0:
                t = math.isqrt((4 * m - b * b) // p)
                if p * t * t == 4 * m - b * b:
                    sols.append((b, t))
            a, b = b, a % b
    if m <= 4 * 10**8:
        for t in range(math.isqrt(4 * m // p) + 1):
            s = math.isqrt(4 * m - p * t * t)
            if s * s == 4 * m - p * t * t:
                sols.append((s, t))
    for s, t in sols:
        if t == 0 or (s % q == 0 and t % q == 0):
            continue
        cands = [((ss - b) // 2, b) for b in (t, -t) for ss in (s, -s) if (ss - b) // 2 % 4 == 1]
        if cands:
            assert len(cands) == 2
            cands.sort(key=lambda f: (f[1] > 0, f[0]), reverse=True)
            return cands[1] if conjugate_choice else cands[0]
    return None


def test_split_generator_against_the_old_search():
    cases = 0
    for p in range(7, 400, 8):
        if not is_prime(p):
            continue
        ctx = FieldCtx(p)
        h = fundamental_class_number(-p)
        for q in split_primes(ctx, 2000):
            assert split_generator(ctx, q, h) == old_split_generator(ctx, q, h, False), (p, q)
            cases += 1
    assert cases == 2930


def test_split_generator_needs_two_split():
    # a = 1 (mod 4) leaves one conjugate pair only when 2 splits, p = 7 (mod 8)
    with pytest.raises(ValidationError, match="p = 7 mod 8"):
        split_generator(FieldCtx(11), 3, 1)
    with pytest.raises(ValidationError, match="p = 7 mod 8"):
        split_generator(FieldCtx(19), 5, 1)


def test_residue_symbol_examples():
    pi_place = places_above(CTX7, 7)[0]
    assert residue_symbol(CTX7, (-3, 0), pi_place) == 1
    assert residue_symbol(CTX7, (5, 0), pi_place) == -1
    inert5 = places_above(CTX7, 5)[0]
    assert residue_symbol(CTX7, NEG_PI, inert5) == -1


def test_residue_symbol_rejects_nonunits():
    # a non-unit has a nonzero valuation, which the graph reads as an error
    assert _local_data(CTX7, (5, 0), places_above(CTX7, 5)[0]) == (1, 1)
    assert _local_data(CTX7, PI, places_above(CTX7, 7)[0])[0] == 1
    with pytest.raises(AssertionError):
        residue_symbol(CTX7, (5, 0), places_above(CTX7, 5)[0])


def test_residue_symbol_multiplicative():
    rng = random.Random(3)
    for p in (7, 23):
        ctx = FieldCtx(p)
        for place in (
            places_above(ctx, p)[0],
            places_above(ctx, inert_primes(ctx, 60)[0])[0],
            places_above(ctx, split_primes(ctx, 60)[0])[0],
        ):
            done = 0
            while done < 170:
                x = (rng.randrange(-40, 41), rng.randrange(-40, 41))
                y = (rng.randrange(-40, 41), rng.randrange(-40, 41))
                if x == (0, 0) or y == (0, 0):
                    continue
                (vx, sx), (vy, sy), (vxy, sxy) = (_local_data(ctx, z, place) for z in (x, y, mul(ctx, x, y)))
                if vx or vy:
                    continue
                assert vxy == 0 and sx * sy == sxy
                done += 1


def test_local_square_laws_at_inert_places():
    # pi (either sign) is a local square at inert Q exactly for Q = 3 mod 4;
    # -1 and other inert stars are always local squares
    for p in (7, 23, 31):
        ctx = FieldCtx(p)
        qs = inert_primes(ctx, 1400)
        assert len([q for q in qs if q % 4 == 1]) >= 50
        assert len([q for q in qs if q % 4 == 3]) >= 50
        for q in qs:
            v = places_above(ctx, q)[0]
            expected = q % 4 == 3
            assert is_local_square(ctx, [PI], v) == expected
            assert is_local_square(ctx, [NEG_PI], v) == expected
            assert is_local_square(ctx, [(-1, 0)], v)
        rng = random.Random(5)
        for _ in range(100):
            q1, q2 = rng.sample(qs, 2)
            q1s = q1 if q1 % 4 == 1 else -q1
            assert is_local_square(ctx, [(q1s, 0)], places_above(ctx, q2)[0])


def test_symbol_reciprocity_laws():
    # products of symbols between pi and normalized split generators
    seen3 = seen1 = 0
    for p, h in ((7, 1), (23, 3), (31, 3)):
        ctx = FieldCtx(p)
        pi_place = places_above(ctx, p)[0]
        for q in split_primes(ctx, 500):
            f = split_generator(ctx, q, h)
            fbar = conjugate(f)
            [v] = places_containing(ctx, q, f)
            [vbar] = places_containing(ctx, q, fbar)
            lhs = residue_symbol(ctx, f, pi_place) * residue_symbol(ctx, PI, v)
            mid = residue_symbol(ctx, fbar, pi_place) * residue_symbol(ctx, PI, vbar)
            assert lhs == 1
            assert mid == (-1 if q % 4 == 3 else 1)
            assert residue_symbol(ctx, f, pi_place) == residue_symbol(ctx, fbar, v)
            if q % 4 == 3:
                seen3 += 1
            else:
                seen1 += 1
    assert seen3 >= 50 and seen1 >= 50


def test_squares_are_local_squares():
    rng = random.Random(9)
    ctx = FieldCtx(23)
    places = [places_above(ctx, 23)[0]]
    places += [places_above(ctx, q)[0] for q in (3, 5, 13)]
    for _ in range(120):
        x = (rng.randrange(-30, 31), rng.randrange(-30, 31))
        if x == (0, 0):
            continue
        for v in places:
            assert is_local_square(ctx, [x, x], v)


def test_local_square_examples():
    inert3 = places_above(CTX7, 3)[0]
    inert5 = places_above(CTX7, 5)[0]
    pi_place = places_above(CTX7, 7)[0]
    assert is_local_square(CTX7, [PI], inert3)
    assert is_local_square(CTX7, [(-1, 0)], inert5)
    assert is_local_square(CTX7, [(-9, 0), PI], inert3)
    assert not is_local_square(CTX7, [(5, 0)], pi_place)


def _symbol_in_quadratic_extension(a, b, q, c):
    # literal computation of (a + b*z)^((q^2-1)/2) in F_q[z]/(z^2 - z + c)
    def mul(u, v):
        u0, u1 = u
        v0, v1 = v
        # z^2 = z - c
        w0 = u0 * v0 - u1 * v1 * c
        w1 = u0 * v1 + u1 * v0 + u1 * v1
        return (w0 % q, w1 % q)

    result = (1, 0)
    base = (a % q, b % q)
    e = (q * q - 1) // 2
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    assert result in ((1, 0), (q - 1, 0))
    return 1 if result == (1, 0) else -1


def test_inert_symbol_against_field_exponentiation():
    # the norm-based symbol must agree with direct exponentiation in F_{q^2}
    rng = random.Random(21)
    for p in (7, 23):
        ctx = FieldCtx(p)
        c = (1 + p) // 4
        for q in inert_primes(ctx, 60)[:4]:
            place = places_above(ctx, q)[0]
            done = 0
            while done < 60:
                x = (rng.randrange(-30, 31), rng.randrange(-30, 31))
                if x == (0, 0) or norm(ctx, x) % q == 0:
                    continue
                direct = _symbol_in_quadratic_extension(*x, q, c)
                assert residue_symbol(ctx, x, place) == direct, (p, q, x)
                done += 1


def test_local_square_rejects_residue_characteristic_two():
    from eisq.quadfield import PlaceK

    place_two = PlaceK(INERT, 2, None, 7)
    with pytest.raises(ValidationError):
        is_local_square(CTX7, [(3, 0)], place_two)


def _omega_root_by_trial(p, q, r, k):
    # the root = r (mod q) of z^2 - z + (1+p)/4 mod q^k, one q-adic digit at a time
    c, z, qi = (1 + p) // 4, r, q
    for _ in range(k - 1):
        z = next(x for x in range(z, qi * q, qi) if (x * x - x + c) % (qi * q) == 0)
        qi *= q
    return z


def test_split_place_lift_against_trial_lifting():
    # w - z_j, with z_j the root of w's polynomial mod q^j, has valuation
    # >= j at the place of that root and 0 at its conjugate; its unit part
    # there is read off the root lifted one q-adic digit at a time, to
    # precision v_q(norm) + 1 <= 9, independently of the residue rule
    prec = 9
    for p in (7, 23, 31, 47, 71):
        ctx = FieldCtx(p)
        for q in split_primes(ctx, 200):
            v, vbar = places_above(ctx, q)
            for place, other in ((v, vbar), (vbar, v)):
                z = _omega_root_by_trial(p, q, place.omega_residue, prec)
                zbar = _omega_root_by_trial(p, q, other.omega_residue, prec)
                for j in range(1, prec - 1):
                    zj = z % q**j
                    g = (-zj, 1)
                    val = valuation(norm(ctx, g), q)
                    if val + 1 > prec:
                        continue
                    assert val >= j and (z - zj) % q ** (val + 1) != 0
                    unit = (z - zj) // q**val % q
                    assert _local_data(ctx, g, place) == (val, jacobi(unit, q)), (p, q, j)
                    assert _local_data(ctx, g, other) == (0, jacobi(zbar - zj, q)), (p, q, j)


def _euler(a, q):
    # Euler's criterion in F_q
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def _local_data_by_euler(ctx, x, v):
    # (valuation, symbol of the unit part) of x at v from the residue field
    # alone: divide out the prime of v while x reduces to 0 there, then
    # Euler's criterion on the residue
    q = v.q
    val = 0

    def divided(y):
        assert y[0] % q == 0 and y[1] % q == 0
        return (y[0] // q, y[1] // q)

    def reduced(y):
        return (y[0] % q, y[1] % q)

    if v.kind == INERT:
        # O/qO is the field of q^2 elements: x^((q^2-1)/2) is 1 or -1 there
        while x[0] % q == 0 and x[1] % q == 0:
            x, val = divided(x), val + 1
        power, e = (1, 0), (q * q - 1) // 2
        while e:
            if e & 1:
                power = reduced(mul(ctx, power, x))
            x, e = reduced(mul(ctx, x, x)), e >> 1
        assert power[1] == 0 and power[0] in (1, q - 1)
        return val, 1 if power[0] == 1 else -1
    r = v.omega_residue
    if v.kind == RAMIFIED:
        # divide out pi = sqrt(-p): x / pi = x * (-pi) / p
        while (x[0] + x[1] * r) % q == 0:
            x, val = divided(mul(ctx, x, NEG_PI)), val + 1
        return val, _euler(x[0] + x[1] * r, q)
    # split: y = w - rbar, with rbar the other root, vanishes at the
    # conjugate place and not at v, so x*y/q is integral with valuation one
    # less at v; the unit part x/q^val is x'/y^val, and y reduces to r - rbar
    [rbar] = [u.omega_residue for u in places_above(ctx, q) if u != v]
    y = (-rbar, 1)
    while (x[0] + x[1] * r) % q == 0:
        x, val = divided(mul(ctx, x, y)), val + 1
    return val, _euler(x[0] + x[1] * r, q) * _euler(r - rbar, q) ** val


def test_local_data_against_euler_criterion():
    # _local_data feeds the twist's table, which the graph and the oracle
    # read: it is checked here against the residue field, at every place over
    # p, small inert and split q, on elements with valuations up to 3, on the
    # same times q^k (k = 1, 2), and on the generators of q^h (and q^k times
    # them) at their own and conjugate places, up to h(-1031) = 35
    rng = random.Random(13)
    checked = {INERT: 0, RAMIFIED: 0, SPLIT_FACTOR: 0, SPLIT_CONJUGATE: 0}
    valued = dict(checked)  # of which x is not a unit at the place
    for p in (7, 23, 31, 47, 71, 1031):
        ctx = FieldCtx(p)
        h = fundamental_class_number(-p)
        qs = inert_primes(ctx, 40)[:3] + split_primes(ctx, 60)[:3]
        for place in places_above(ctx, p) + [v for q in qs for v in places_above(ctx, q)]:
            q = place.q
            # an element of the prime of the place, and generators of q^h
            prime = PI if place.kind == RAMIFIED else (q, 0)
            xs = []
            if place.kind in (SPLIT_FACTOR, SPLIT_CONJUGATE):
                prime = (-place.omega_residue, 1)
                a, b = f = split_generator(ctx, q, h)
                qf = (q * a, q * b)
                xs = [f, conjugate(f), (-a, -b), qf, conjugate(mul(ctx, qf, (q, 0)))]
            for _ in range(80):
                x = (rng.randrange(-40, 41), rng.randrange(-40, 41))
                if x == (0, 0):
                    continue
                for _ in range(rng.randrange(4)):
                    x = mul(ctx, x, prime)
                content = q ** rng.randrange(1, 3)
                xs.append(x)
                xs.append(mul(ctx, (content * x[0], content * x[1]), prime))
                xs.append((rng.choice((-1, 1)) * rng.randrange(1, 200) * q ** rng.randrange(3), 0))
            for x in xs:
                expected = _local_data_by_euler(ctx, x, place)
                assert _local_data(ctx, x, place) == expected, (p, place, x)
                checked[place.kind] += 1
                valued[place.kind] += expected[0] > 0
    assert min(checked.values()) >= 1400 and min(valued.values()) >= 1100, (checked, valued)


def test_local_data_rejects_a_zero_symbol(monkeypatch):
    # a symbol 0 would mean the unit part vanishes at the place, so no such
    # entry may reach the table; the places are built before the patch,
    # since classify_prime reads the same jacobi
    ctx = FieldCtx(23)
    places = places_above(ctx, 23) + places_above(ctx, 5) + places_above(ctx, 13)
    assert [v.kind for v in places] == [RAMIFIED, INERT, SPLIT_FACTOR, SPLIT_CONJUGATE]
    monkeypatch.setattr(quadfield, "jacobi", lambda a, n: 0)
    for v in places:
        for x in ((3, 1), (-(v.omega_residue or 0), 1), (7 * v.q, 0)):
            with pytest.raises(InternalCheckError, match=re.escape(f"place {v.label()} ")):
                _local_data(ctx, x, v)
