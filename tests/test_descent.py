import io
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from eisq import etacusp
from eisq.arith import is_prime, jacobi
from eisq.classgroup import prime_form
from eisq.descent import (
    INCONCLUSIVE,
    NONTORSION,
    heegner_setup,
    neumann_setzer,
    roots_of_unity,
    verdict_ns_curve,
    verdict_p2_level,
    verdict_prime_level_2,
    verdict_prime_level_odd_q,
    verdict_rational_divisor,
)
from eisq.errors import InternalCheckError, ResourceCapError, ValidationError
from eisq.etacusp import CuspDivisor, canonical_orders, cuspidal_class_order, prime_exponent, special_function
from test_classgroup import class_number_of_disc, form_pow

# fundamental discriminants with small class numbers, for verdict tables
SMALL_DISCS = (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31, -35, -39, -40, -43, -47, -52, -67, -79, -163)


def test_roots_of_unity():
    assert roots_of_unity(-3) == 6
    assert roots_of_unity(-4) == 4
    assert roots_of_unity(-7) == 2


def test_no_form_enumeration_per_setup_and_verdict(monkeypatch):
    # h_K of a fundamental K is counted, never listed
    import eisq.classgroup as classgroup

    calls = []
    enumerate_forms = classgroup.reduced_forms

    def counted(disc):
        calls.append(disc)
        return enumerate_forms(disc)

    monkeypatch.setattr(classgroup, "reduced_forms", counted)
    for p, disc in ((11, -7), (97, -1003), (13, -23), (61, -2711), (97, -9983951)):
        heegner_setup(p, disc)
    for p, disc, q in ((11, -7, 5), (13, -23, 7), (61, -2711, 5), (101, -9983, 17)):
        r = special_function(p * p)
        div = CuspDivisor.from_map(p * p, {p: 1, p * p: -(p - 1)})
        verdict_rational_divisor(p * p, r, div, disc, q)
    assert calls == []


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_piece_of_work_once_per_call(monkeypatch):
    # the level is parsed once per public etacusp call and never by
    # heegner_setup, and the prime-class order is computed only by the
    # verdicts that print it, once per (K, p)
    import eisq.classgroup as classgroup
    import eisq.etacusp as etacusp
    from eisq.cli import main

    parses = _counting(monkeypatch, etacusp, "divisors")
    orders = _counting(monkeypatch, classgroup, "class_order")
    for p in (11, 13, 613):
        del parses[:]
        with redirect_stdout(io.StringIO()):
            assert main(["eta", "--N", str(p * p), "--special"]) == 0
        # special_function, ligozat_check, eta_divisor and
        # cuspidal_class_order, one parse each (50 before)
        assert len(parses) <= 4, (p, len(parses))
    for p, disc, q in ((11, -7, 5), (13, -23, 7), (61, -2711, 5), (101, -9983, 17)):
        r, div = special_function(p * p), CuspDivisor.from_map(p * p, {p: 1, p * p: -(p - 1)})
        del orders[:], parses[:]
        verdict_rational_divisor(p * p, r, div, disc, q)
        assert len(orders) == 1, (p, disc)
        # `_rational_eta_product`'s own divisors call and
        # `special_function`'s (3 while heegner_setup parsed the level too)
        assert len(parses) <= 2, (p, disc, len(parses))
    del orders[:]
    verdict_prime_level_2(73, -19)
    verdict_prime_level_2(73, -9983951)
    verdict_ns_curve(73, -19)
    verdict_ns_curve(73, -9990047)
    assert orders == []
    # one computation per (K, p) per process: (-79, 11) is new, while
    # (-23, 13) was met by the rational-divisor verdict above
    verdict_prime_level_odd_q(11, -79, 5)
    verdict_p2_level(13, -23, 7)
    assert len(orders) == 1
    # a second identical verdict reads h_K back from the memo: no root table
    counts = _counting(monkeypatch, classgroup, "_two_adic_roots")
    r, div = special_function(101**2), CuspDivisor.from_map(101**2, {101: 1, 101**2: -100})
    verdict_rational_divisor(101**2, r, div, -9983, 17)
    assert len(counts) == 0


def test_heegner_setup():
    s = heegner_setup(11, -7)
    assert s.h_k == 1 and s.split_ok and s.prime_power_order(1) == 1
    s2 = heegner_setup(11, -79)
    assert s2.h_k == 5 and s2.split_ok
    s3 = heegner_setup(11, -11)  # ramified level prime
    assert not s3.split_ok
    with pytest.raises(ValidationError, match="not fundamental"):
        heegner_setup(11, -12)
    with pytest.raises(ValidationError, match="not fundamental"):
        heegner_setup(11, -63)  # 1 mod 4, divisible by 3^2
    # fundamental_class_number tests the sign and the residue mod 4 first
    with pytest.raises(ValidationError, match="^need a negative discriminant = 0,1 mod 4, got -5$"):
        heegner_setup(11, -5)
    with pytest.raises(ValidationError, match="^need a negative discriminant = 0,1 mod 4, got 5$"):
        heegner_setup(11, 5)
    # the cap on |D| is tested before fundamentality, as classnum does
    with pytest.raises(ResourceCapError):
        heegner_setup(11, -4 * 10**29)
    # the set-up is keyed on the prime p >= 5 of the level, never on a level:
    # 9 and 121 are not read as the levels 3^2 and 11^2
    for p in (2, 3, 4, 9, 15, 121):
        with pytest.raises(ValidationError, match=f"^need a prime p >= 5, got {p}$"):
            heegner_setup(p, -7)


def test_eisenstein_order():
    # canonical_orders(p) = (n_p, n_p2), the closed forms every verdict
    # reads, against the orders that Cramer's rule finds for [1] - [p] at
    # level p and [p] - (p-1)[p^2] at p^2, at every prime 5 <= p < 500
    assert [canonical_orders(p)[0] for p in (11, 13, 73, 67)] == [5, 1, 6, 11]
    primes = [p for p in range(5, 500) if is_prime(p)]
    for p in primes:
        n_p = cuspidal_class_order(p, CuspDivisor.from_map(p, {1: 1, p: -1}))
        n_p2 = cuspidal_class_order(p * p, CuspDivisor.from_map(p * p, {p: 1, p * p: -(p - 1)}))
        assert canonical_orders(p) == (n_p, n_p2), p
    assert len(primes) == 93
    # the one test of a prime p >= 5: below 5, and at composites and squares
    for p in (2, 3, 4, 9, 15, 49):
        with pytest.raises(ValidationError, match=f"^need a prime p >= 5, got {p}$"):
            canonical_orders(p)


def test_prime_level_odd_q_examples():
    v = verdict_prime_level_odd_q(11, -7, 5)
    assert v.conclusion == NONTORSION
    # q | h_K kills the valuation inequality
    v2 = verdict_prime_level_odd_q(11, -79, 5)
    assert v2.conclusion == INCONCLUSIVE
    failed = [t.name for t in v2.trace if not t.passed]
    assert failed == ["v_q(h_K) < v_q(n)"]
    # split check decides for p = 67, K = Q(sqrt(-7)): n = 11
    v3 = verdict_prime_level_odd_q(67, -7, 11)
    assert v3.conclusion == (NONTORSION if jacobi(-7, 67) == 1 else INCONCLUSIVE)


def test_prime_level_odd_q_preconditions():
    with pytest.raises(ValidationError):
        verdict_prime_level_odd_q(13, -7, 5)  # n = 1
    with pytest.raises(ValidationError):
        verdict_prime_level_odd_q(11, -7, 3)  # gcd(q,6) != 1
    with pytest.raises(ValidationError):
        verdict_prime_level_odd_q(31, -7, 7)  # 7 does not divide n = 5


def test_prime_level_2():
    v = verdict_prime_level_2(73, -19)
    assert v.conclusion == NONTORSION
    # even class number blocks the criterion: h(-15) = 2
    assert class_number_of_disc(-15) == 2
    v2 = verdict_prime_level_2(73, -15)
    assert v2.conclusion == INCONCLUSIVE
    with pytest.raises(ValidationError):
        verdict_prime_level_2(13, -7)  # n = 1


def test_neumann_setzer_detection():
    ns = neumann_setzer(73)
    assert ns.is_ns_prime and ns.u == 3 and ns.u_mod_8 == 3 and ns.two_eisenstein_simple
    ns89 = neumann_setzer(89)
    # u = 5 = -3 (mod 8), so the simplicity criterion applies
    assert ns89.is_ns_prime and ns89.u == 5 and ns89.two_eisenstein_simple
    ns11 = neumann_setzer(11)
    assert not ns11.is_ns_prime and ns11.u is None
    ns113 = neumann_setzer(113)  # 49 + 64, u = 7
    assert ns113.is_ns_prime and ns113.u == 7 and not ns113.two_eisenstein_simple


def test_ns_corollary():
    v = verdict_ns_curve(73, -19)
    assert v.conclusion == NONTORSION
    v2 = verdict_ns_curve(73, -15)  # even class number
    assert v2.conclusion == INCONCLUSIVE
    v3 = verdict_ns_curve(11, -7)  # not an NS prime
    assert v3.conclusion == INCONCLUSIVE


def test_p2_level_examples():
    v = verdict_p2_level(13, -3, 7)
    assert v.conclusion == NONTORSION
    with pytest.raises(ValidationError):
        verdict_p2_level(11, -7, 5)  # 5 does not divide p + 1 = 12
    with pytest.raises(ValidationError):
        verdict_p2_level(13, -3, 3)


def test_p2_level_q_dividing_p_plus_1_divides_n():
    # q | p + 1 and gcd(q, 6) = 1 give q | p^2 - 1 = 24 n with gcd(q, 24) = 1,
    # so q | n: the verdict needs no test of it, and raises nothing here
    cases = 0
    for p in filter(is_prime, range(5, 2000)):
        for q in range(5, p + 2):
            if (p + 1) % q == 0 and is_prime(q):
                assert canonical_orders(p)[1] % q == 0, (p, q)
                v = verdict_p2_level(p, -3, q)
                assert v.trace[0].passed and v.trace[0].value == f"q={q}, n={canonical_orders(p)[1]}"
                cases += 1
    assert cases == 380


def test_p2_level_inconclusive_on_large_h():
    # q = 7 with h(-71) = 7: the verdict must match the computed h/o valuation
    assert class_number_of_disc(-71) == 7
    if jacobi(-71, 13) == 1:
        v = verdict_p2_level(13, -71, 7)
        o = heegner_setup(13, -71).prime_power_order(1)
        h_over_o = class_number_of_disc(-71) // o
        expect = INCONCLUSIVE if h_over_o % 7 == 0 else NONTORSION
        assert v.conclusion == expect


def test_rational_divisor_specializes_to_prime_level():
    pairs = 0
    for p in (11, 17, 19, 37, 41, 61, 67, 73, 97, 101):
        n = canonical_orders(p)[0]
        qs = [q for q in (5, 7, 11, 13) if n % q == 0]
        if not qs:
            continue
        r = special_function(p)
        div = CuspDivisor.from_map(p, {1: 1, p: -1})
        for q in qs:
            for disc in SMALL_DISCS:
                if disc % p == 0:
                    continue
                h = class_number_of_disc(disc)
                if math.gcd(h, q) != 1:
                    # the printed hypothesis (h_K) and the sharper root-ideal
                    # hypothesis (h_r) can differ here; compared separately
                    continue
                general = verdict_rational_divisor(p, r, div, disc, q)
                dedicated = verdict_prime_level_odd_q(p, disc, q)
                assert general.conclusion == dedicated.conclusion, (p, q, disc)
                pairs += 1
    assert pairs >= 50


def test_rational_divisor_specializes_to_p2_level():
    pairs = 0
    for p in (13, 5, 17, 41):
        n = (p * p - 1) // 24
        qs = [q for q in (5, 7, 11, 13) if n % q == 0 and (p + 1) % q == 0]
        if not qs:
            continue
        r = special_function(p * p)
        div = CuspDivisor.from_map(p * p, {p: 1, p * p: -(p - 1)})
        for q in qs:
            for disc in SMALL_DISCS:
                if disc % p == 0:
                    continue
                h = class_number_of_disc(disc)
                if math.gcd(h, q) != 1:
                    continue
                general = verdict_rational_divisor(p * p, r, div, disc, q)
                dedicated = verdict_p2_level(p, disc, q)
                assert general.conclusion == dedicated.conclusion, (p, q, disc)
                pairs += 1
    assert pairs >= 20


def test_rational_divisor_validation():
    r = special_function(11)
    div = CuspDivisor.from_map(11, {1: 1, 11: -1})
    with pytest.raises(ValidationError):
        verdict_rational_divisor(11, {1: 0, 11: 0}, div, -7, 5)
    with pytest.raises(ValidationError):
        verdict_rational_divisor(11, r, CuspDivisor.from_map(11, {1: 2, 11: -2}), -7, 5)
    with pytest.raises(ValidationError):
        verdict_rational_divisor(11, r, div, -7, 7)  # 7 does not divide n = 5


def test_rational_divisor_reads_r_off_the_class_order(monkeypatch):
    # the class order's checked eta-product stands for r's divisor, so a
    # verdict at level p^2 computes 4 divisors (the numerators of the two
    # basis vectors, the class order's check and `special_function`'s check
    # of the canonical product), and r's own only where a wrong r's message
    # prints it, in the same words as when every verdict computed it
    calls = _counting(monkeypatch, etacusp, "_eta_numerators")
    for p, disc, q in ((11, -7, 5), (13, -23, 7), (101, -9983, 17)):
        level = p * p
        div = CuspDivisor.from_map(level, {p: 1, level: -(p - 1)})
        n, r = etacusp.cuspidal_class_order(level, div), special_function(level)
        del calls[:]
        verdict_rational_divisor(level, r, div, disc, q)
        assert len(calls) == 4, p
        for wrong in ({1: -2, p: 2 * p + 2, level: -2 * p}, {1: 1, p: -1}):
            image = etacusp.eta_divisor(level, wrong)
            del calls[:]
            with pytest.raises(ValidationError) as err:
                verdict_rational_divisor(level, wrong, div, disc, q)
            assert str(err.value) == f"eta-product divisor {image} is not n*D = {div.scale(n)} with n = {n}"
            assert len(calls) == 4 and calls[-1][1] == {d: wrong.get(d, 0) for d in (1, p, level)}, p
        # an exponent at a non-divisor fails, even at 0, as it did by eta_divisor
        with pytest.raises(ValidationError, match=f"^7 does not divide the level {level}$"):
            verdict_rational_divisor(level, {**special_function(level), 7: 0}, div, disc, q)


def test_monotonicity_in_class_number():
    # same (p, q), class number valuation pushed past v_q(n): verdict flips
    nontorsion_disc, inconclusive_disc = -7, -79
    assert class_number_of_disc(-79) == 5
    assert jacobi(-79, 11) == 1
    v1 = verdict_prime_level_odd_q(11, nontorsion_disc, 5)
    v2 = verdict_prime_level_odd_q(11, inconclusive_disc, 5)
    assert v1.conclusion == NONTORSION and v2.conclusion == INCONCLUSIVE


def test_traces_are_complete():
    verdicts = [
        verdict_prime_level_odd_q(11, -7, 5),
        verdict_prime_level_odd_q(11, -79, 5),
        verdict_prime_level_2(73, -19),
        verdict_ns_curve(73, -19),
        verdict_p2_level(13, -3, 7),
    ]
    for v in verdicts:
        assert (v.conclusion == NONTORSION) == all(t.passed for t in v.trace)
        assert all(isinstance(t.passed, bool) for t in v.trace)


def test_prime_power_order_of_eta_data():
    # level p^2 canonical exponents over a class-number-one Heegner field
    r = {1: -1, 13: 14, 169: -13}
    s = heegner_setup(13, -3)
    assert s.h_k == 1 and s.prime_power_order(-prime_exponent(169, r) // 2) == 1
    # zero exponents give the principal class
    assert prime_exponent(121, {1: 0, 11: 0, 121: 0}) == 0
    assert heegner_setup(11, -7).prime_power_order(0) == 1
    # an inert level prime has no prime class: prime_form raises
    with pytest.raises(ValidationError, match="^7 is inert for discriminant -23$"):
        heegner_setup(7, -23).prime_power_order(1)
    # a ramified one has the class of the ramified prime: at -35 (h = 2, 5
    # and 7 ramify) it is not principal and its square is, against powering
    for p in (5, 7):
        s = heegner_setup(p, -35)
        assert not s.split_ok and s.h_k == 2
        assert (s.prime_power_order(1), s.prime_power_order(2)) == (2, 1)
        f = prime_form(-35, p)
        assert form_pow(f, 1) != (1, 1, 9) and form_pow(f, 2) == (1, 1, 9)


def test_rational_divisor_rejects_an_odd_prime_exponent(monkeypatch):
    # r has prime exponent 27 and an integral divisor, which the lattice of
    # rational eta-products does not hold; the class order is forced to 5,
    # with r as its eta-product, so that the verdict passes its divisor
    # check and reaches the root ideal.
    # Unforced, no r gets there: the eta-divisor map is invertible
    # (test_etacusp), so r is the rational eta-product of n*D, of even e
    r = {1: -27, 17: 27}
    assert prime_exponent(17, r) == 27 and jacobi(-4, 17) == 1
    div = etacusp.eta_divisor(17, r).scale(Fraction(1, 5))
    monkeypatch.setattr(etacusp, "_class_order", lambda level, d: (5, r))
    with pytest.raises(InternalCheckError, match="odd prime exponent 27"):
        verdict_rational_divisor(17, r, div, -4, 5)


def test_prime_power_order_with_nontrivial_group():
    # p = 11 splits in disc -79 (h = 5); the eta datum walks the class group
    s = heegner_setup(11, -79)
    k = -prime_exponent(11, {1: 12, 11: -12}) // 2
    o = s.prime_power_order(k)
    assert k == 6 and o in (1, 5) and s.h_k == 5
    assert form_pow(form_pow(prime_form(-79, 11), k), o) == (1, 1, 20)


def test_prime_power_order_against_powering():
    # ord(P^k) = ord(P)/gcd(ord(P), k) against the order of P^k itself, for
    # every k in -p..p, at (13, -23) (h = 3: ord(P) = 3, ord(P^6) = 1) and at
    # 30 random split (K, p) with |K| <= 10^6
    import random

    from eisq.classgroup import class_order, is_fundamental

    rng = random.Random(29)
    pairs = [(13, -23)]
    while len(pairs) < 31:
        disc, p = -rng.randrange(3, 10**6), rng.choice([q for q in range(5, 150) if is_prime(q)])
        if disc % 4 in (0, 1) and is_fundamental(disc) and jacobi(disc, p) == 1:
            pairs.append((p, disc))
    differ = 0
    for p, disc in pairs:
        s = heegner_setup(p, disc)
        base, order = prime_form(disc, p), s.prime_power_order(1)
        for k in range(-p, p + 1):
            want = class_order(form_pow(base, k), s.h_k)
            assert s.prime_power_order(k) == want, (p, disc, k)
            differ += want != order
    s = heegner_setup(13, -23)
    assert (s.h_k, s.prime_power_order(1), s.prime_power_order(6), s.prime_power_order(-3)) == (3, 3, 1, 1)
    assert differ > 100


def test_canonical_verdict_compositions(monkeypatch):
    # one canonical verdict at (101^2, -9983, 17), h = 92: the order 92 of P
    # takes 18 compositions, and ord(P^50) = 92/gcd(92, 50) = 46 takes no more
    import eisq.classgroup as classgroup

    r, div = special_function(101**2), CuspDivisor.from_map(101**2, {101: 1, 101**2: -100})
    calls = _counting(monkeypatch, classgroup, "_compose")
    v = verdict_rational_divisor(101**2, r, div, -9983, 17)
    assert v.trace[3].value == "v_17(2) = 0 vs v_17(425) = 1, o(a_r) = 46"
    assert len(calls) == 18
