import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisq.arith import is_prime, jacobi, valuation
from eisq.errors import ValidationError
from eisq.quadfield import (
    INERT,
    RAMIFIED,
    SPLIT_CONJUGATE,
    SPLIT_FACTOR,
    FieldCtx,
    classify_prime,
    is_local_square,
    place_of_prime_element,
    places_above,
    residue_symbol,
    split_generator,
)

CTX7 = FieldCtx(7)


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


def test_ctx_validation():
    with pytest.raises(ValidationError):
        FieldCtx(13)  # 1 mod 4
    with pytest.raises(ValidationError):
        FieldCtx(3)
    with pytest.raises(ValidationError):
        FieldCtx(15)


def test_ring_operations():
    x = CTX7.quad(1, 2)
    assert x.norm() == 11
    assert (x.conjugate().a, x.conjugate().b) == (3, -2)
    assert x.conjugate().conjugate() == x
    assert (x * x.conjugate()).a == 11 and (x * x.conjugate()).b == 0
    pi = CTX7.pi()
    assert (pi * pi).a == -7 and (pi * pi).b == 0
    assert CTX7.quad(0, 0).norm() == 0
    with pytest.raises(ValidationError):
        x * FieldCtx(23).quad(1, 0)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(a, b, c, d):
    x, y = CTX7.quad(a, b), CTX7.quad(c, d)
    assert (x * y).norm() == x.norm() * y.norm()


def test_norm_multiplicative_bulk():
    rng = random.Random(12)
    ctx = FieldCtx(23)
    for _ in range(1000):
        x = ctx.quad(rng.randrange(-10**4, 10**4), rng.randrange(-10**4, 10**4))
        y = ctx.quad(rng.randrange(-10**4, 10**4), rng.randrange(-10**4, 10**4))
        assert (x * y).norm() == x.norm() * y.norm()


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
    assert len(ram) == 1 and ram[0].kind == RAMIFIED and ram[0].residue_degree == 1
    spl = places_above(CTX7, 11)
    assert [v.kind for v in spl] == [SPLIT_FACTOR, SPLIT_CONJUGATE]
    assert (spl[0].omega_residue + spl[1].omega_residue) % 11 == 1
    ine = places_above(CTX7, 5)
    assert len(ine) == 1 and ine[0].residue_degree == 2
    with pytest.raises(ValidationError):
        places_above(CTX7, 2)


def test_split_generator_examples():
    f11 = split_generator(CTX7, 11, 1)
    assert (f11.a, f11.b) == (1, 2)
    f29 = split_generator(CTX7, 29, 1)
    assert (f29.a, f29.b) == (-3, 4)
    ctx23 = FieldCtx(23)
    f13 = split_generator(ctx23, 13, 3)
    assert f13.norm() == 13**3 and f13.a % 4 == 1 and valuation(f13.b, 2) >= 2


def test_split_generator_normalization_sweep():
    for p, h in ((7, 1), (23, 3), (31, 3)):
        ctx = FieldCtx(p)
        for q in split_primes(ctx, 300):
            f = split_generator(ctx, q, h)
            g = split_generator(ctx, q, h, conjugate_choice=True)
            for cand in (f, g):
                assert cand.norm() == q**h
                assert cand.a % 4 == 1
                if q % 4 == 3:
                    assert valuation(cand.b, 2) == 1
                else:
                    assert valuation(cand.b, 2) >= 2
            # the two choices generate conjugate prime powers
            assert place_of_prime_element(ctx, f) != place_of_prime_element(ctx, g)


def test_residue_symbol_examples():
    pi_place = places_above(CTX7, 7)[0]
    assert residue_symbol(CTX7, -3, pi_place) == 1
    assert residue_symbol(CTX7, 5, pi_place) == -1
    inert5 = places_above(CTX7, 5)[0]
    assert residue_symbol(CTX7, -CTX7.pi(), inert5) == -1


def test_residue_symbol_rejects_nonunits():
    with pytest.raises(ValidationError):
        residue_symbol(CTX7, 5, places_above(CTX7, 5)[0])
    with pytest.raises(ValidationError):
        residue_symbol(CTX7, CTX7.pi(), places_above(CTX7, 7)[0])


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
                x = ctx.quad(rng.randrange(-40, 41), rng.randrange(-40, 41))
                y = ctx.quad(rng.randrange(-40, 41), rng.randrange(-40, 41))
                xy = x * y
                try:
                    sx = residue_symbol(ctx, x, place)
                    sy = residue_symbol(ctx, y, place)
                    sxy = residue_symbol(ctx, xy, place)
                except ValidationError:
                    continue
                assert sx * sy == sxy
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
            assert is_local_square(ctx, ctx.pi(), v) == expected
            assert is_local_square(ctx, -ctx.pi(), v) == expected
            assert is_local_square(ctx, -1, v)
        rng = random.Random(5)
        for _ in range(100):
            q1, q2 = rng.sample(qs, 2)
            q1s = q1 if q1 % 4 == 1 else -q1
            assert is_local_square(ctx, q1s, places_above(ctx, q2)[0])


def test_symbol_reciprocity_laws():
    # products of symbols between pi and normalized split generators
    seen3 = seen1 = 0
    for p, h in ((7, 1), (23, 3), (31, 3)):
        ctx = FieldCtx(p)
        pi = ctx.pi()
        pi_place = places_above(ctx, p)[0]
        for q in split_primes(ctx, 500):
            f = split_generator(ctx, q, h)
            fbar = f.conjugate()
            lhs = residue_symbol(ctx, f, pi_place) * residue_symbol(ctx, pi, f)
            mid = residue_symbol(ctx, fbar, pi_place) * residue_symbol(ctx, pi, fbar)
            assert lhs == 1
            assert mid == (-1 if q % 4 == 3 else 1)
            assert residue_symbol(ctx, f, pi_place) == residue_symbol(ctx, fbar, f)
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
        x = ctx.quad(rng.randrange(-30, 31), rng.randrange(-30, 31))
        if x.is_zero():
            continue
        for v in places:
            assert is_local_square(ctx, [(x, 2)], v)


def test_local_square_examples():
    inert3 = places_above(CTX7, 3)[0]
    inert5 = places_above(CTX7, 5)[0]
    pi_place = places_above(CTX7, 7)[0]
    assert is_local_square(CTX7, CTX7.pi(), inert3)
    assert is_local_square(CTX7, -1, inert5)
    assert is_local_square(CTX7, [(-9, 1), (CTX7.pi(), 1)], inert3)
    assert not is_local_square(CTX7, 5, pi_place)


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
        c = ctx.omega_norm
        for q in inert_primes(ctx, 60)[:4]:
            place = places_above(ctx, q)[0]
            done = 0
            while done < 60:
                x = ctx.quad(rng.randrange(-30, 31), rng.randrange(-30, 31))
                if x.is_zero() or x.norm() % q == 0:
                    continue
                direct = _symbol_in_quadratic_extension(x.a, x.b, q, c)
                assert residue_symbol(ctx, x, place) == direct, (p, q, x)
                done += 1


def test_local_square_rejects_residue_characteristic_two():
    from eisq.quadfield import PlaceK

    place_two = PlaceK(INERT, 2, None, 7)
    with pytest.raises(ValidationError):
        is_local_square(CTX7, 3, place_two)
    with pytest.raises(ValidationError):
        residue_symbol(CTX7, 3, place_two)


def _omega_root_by_trial(p, q, r, k):
    # the root = r (mod q) of z^2 - z + (1+p)/4 mod q^k, one q-adic digit at a time
    c, z, qi = (1 + p) // 4, r, q
    for _ in range(k - 1):
        z = next(x for x in range(z, qi * q, qi) if (x * x - x + c) % (qi * q) == 0)
        qi *= q
    return z


def test_split_place_lift_against_trial_lifting():
    # w - z_j, with z_j the root of w's polynomial mod q^j, has valuation
    # >= j at the place of that root and 0 at its conjugate; the split-place
    # local data lift the residue of w to precision v_q(norm) + 1 <= 9
    from eisq.quadfield import _local_data

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
                    g = ctx.quad(-zj, 1)
                    val = valuation(g.norm(), q)
                    if val + 1 > prec:
                        continue
                    assert val >= j and (z - zj) % q ** (val + 1) != 0
                    unit = (z - zj) // q**val % q
                    assert _local_data(ctx, g, place) == (val, jacobi(unit, q)), (p, q, j)
                    assert _local_data(ctx, g, other) == (0, jacobi(zbar - zj, q)), (p, q, j)
