import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from eisq import etacusp
from eisq.arith import factor, is_prime
from eisq.errors import InternalCheckError, ValidationError
from eisq.etacusp import (
    CuspDivisor,
    _basis,
    _orbit_sizes,
    cuspidal_class_order,
    cuspidal_group_invariants,
    divisors,
    eta_divisor,
    is_special,
    ligozat_check,
    prime_exponent,
    special_function,
)

PRIMES_5_50 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def closed_form_basis(n):
    return _basis(divisors(n))


def test_divisors_and_cusp_count_against_trial_division():
    # every level p and p^2 with 5 <= p < 200: the divisors by trial division,
    # and the orbit sizes phi(gcd(d, N/d)), which weigh each cusp of an eta
    # divisor's degree, adding up to the cusp count: 2 on X0(p), p + 1 on X0(p^2)
    assert _orbit_sizes(divisors(49)) == [1, 6, 1] and _orbit_sizes(divisors(11)) == [1, 1]
    for p in (q for q in range(5, 200) if all(q % r for r in range(2, q))):
        for n, cusps in ((p, 2), (p * p, p + 1)):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
            sizes = _orbit_sizes(divisors(n))
            phis = [sum(math.gcd(k, g) == 1 for k in range(1, g + 1)) for g in (math.gcd(d, n // d) for d in divisors(n))]
            assert sizes == phis, n
            assert sum(sizes) == cusps, n
    for n in (1, 12, 5**3, 35):
        with pytest.raises(ValidationError):
            divisors(n)


def test_ligozat_examples():
    assert ligozat_check(121, {1: 12, 11: -12}).ok
    assert ligozat_check(11, {1: 12, 11: -12}).ok
    assert ligozat_check(49, {1: -1, 7: 8, 49: -7}).ok
    rep = ligozat_check(49, {1: 1, 7: -1, 49: 0})
    assert not rep.ok and not rep.weighted_mod24
    with pytest.raises(ValidationError):
        ligozat_check(49, {2: 1})


def test_eta_divisor_examples():
    assert eta_divisor(49, {1: -1, 7: 8, 49: -7}) == CuspDivisor.from_map(
        49, {7: 2, 49: -12}
    )
    assert eta_divisor(11, {1: 12, 11: -12}) == CuspDivisor.from_map(11, {1: 5, 11: -5})
    zero = eta_divisor(49, {})
    assert zero.nums == (0, 0, 0) and zero.den == 1


def _eta_divisor_per_term(n, r):
    """The order formula term by term: (N / (24*gcd(c^2, N))) * sum_d
    r_d*gcd(c,d)^2/d at each cusp level c, one Fraction per term."""
    coeffs = []
    for c in divisors(n):
        total = sum(Fraction(rd * math.gcd(c, d) ** 2, d) for d, rd in r.items())
        coeffs.append(Fraction(n, 24 * math.gcd(c * c, n)) * total)
    return CuspDivisor(n, tuple(coeffs))


def test_eta_divisor_against_per_term_formula():
    # every exponent vector in {-3..3}^tau, rational or not, at N = p and p^2
    non_integral = failing = 0
    for p in PRIMES_5_50:
        for n in (p, p * p):
            divs = divisors(n)
            for vec in itertools.product(range(-3, 4), repeat=len(divs)):
                r = dict(zip(divs, vec))
                image = eta_divisor(n, r)
                assert image == _eta_divisor_per_term(n, r), (n, vec)
                non_integral += image.den != 1
                failing += not ligozat_check(n, r).ok
    assert non_integral > 1000 and failing > 4000


def _determinant(m):
    # Fraction determinant by cofactor expansion along the first row
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _determinant([row[:j] + row[j + 1 :] for row in m[1:]]) for j in range(len(m)))


def test_eta_divisor_map_is_invertible():
    # the matrix of r -> div(eta-product), column d the divisor of eta(d z):
    # its determinant is (p^2 - 1)/576 at level p and p(p^2 - 1)^2/13824 at
    # p^2, never 0, so an exponent vector is determined by its divisor
    for p in range(2, 200):
        if not is_prime(p):
            continue
        for n, det in ((p, Fraction(p * p - 1, 576)), (p * p, Fraction(p * (p * p - 1) ** 2, 13824))):
            divs = divisors(n)
            columns = [[eta_divisor(n, {d: 1}).coeff(c) for c in divs] for d in divs]
            assert _determinant([list(row) for row in zip(*columns)]) == det, n


def test_eta_divisor_degree_zero_on_lattice():
    rng = random.Random(2)
    for n in (11, 49, 121, 169):
        gens = closed_form_basis(n)
        divs = divisors(n)
        for _ in range(500):
            combo = {d: 0 for d in divs}
            for g in rng.sample(gens, k=min(3, len(gens))):
                c = rng.randrange(-2, 3)
                for d, v in g.items():
                    combo[d] += c * v
            assert ligozat_check(n, combo).ok
            image = eta_divisor(n, combo)
            assert image.degree() == 0
            assert image.den == 1


def test_eta_divisor_degree_by_valence_formula():
    # the degree is (sum r_d / 2) [SL2(Z) : Gamma0(N)] / 12, so it vanishes
    # exactly at weight 0, rational or not: every r in {-3..3}^tau
    count = 0
    for n in (11, 13, 25, 37, 49, 121, 169, 289):
        divs = divisors(n)
        p = divs[1]
        index = n * (p + 1) // p
        for vec in itertools.product(range(-3, 4), repeat=len(divs)):
            degree = eta_divisor(n, dict(zip(divs, vec))).degree()
            assert degree == Fraction(sum(vec) * index, 24), (n, vec)
            assert (degree == 0) == (sum(vec) == 0), (n, vec)
            count += 1
    assert count == 1862


def test_eta_divisor_degree_check_raises(monkeypatch):
    # a wrong orbit size gives a weight-0 divisor a nonzero degree; the
    # check is a raise, not an assert, so it also runs under python -O
    import eisq.etacusp as etacusp

    real = etacusp._orbit_sizes
    monkeypatch.setattr(etacusp, "_orbit_sizes", lambda divs: [s + 1 for s in real(divs)])
    with pytest.raises(InternalCheckError, match="weight 0 has degree"):
        eta_divisor(49, {1: -1, 7: 8, 49: -7})
    eta_divisor(49, {1: 1, 7: 0, 49: 0})  # weight 1/2: not checked


def _enumerated_lattice(n):
    """Generators of the Ligozat lattice by enumeration: 24 * (e_d - e_N)
    for every divisor d < N, and every residue sum c_d * (e_d - e_N) with
    0 <= c_d < 24 that passes ligozat_check; 24^(tau-1) checks."""
    divs = divisors(n)
    gens = [[24 * (d == e) - 24 * (e == n) for e in divs] for d in divs[:-1]]
    for combo in itertools.product(range(24), repeat=len(divs) - 1):
        vec = list(combo) + [-sum(combo)]
        if any(combo) and ligozat_check(n, dict(zip(divs, vec))).ok:
            gens.append(vec)
    return gens


def test_eta_lattice_basis_spans_the_enumerated_lattice():
    # the closed-form basis has a pivot at each divisor d > 1: basis vector j
    # is the only one nonzero at divs[j + 1], so a weight-0 vector lies in its
    # span iff each of its entries there is a multiple of the pivot; every
    # basis vector is in the enumerated lattice iff its residues mod 24 are
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for n in (p, p * p):
            divs = divisors(n)
            basis = [[r.get(d, 0) for d in divs] for r in closed_form_basis(n)]
            assert len(basis) == len(divs) - 1
            enumerated = _enumerated_lattice(n)
            for v in enumerated:
                coords = [Fraction(v[j + 1], b[j + 1]) for j, b in enumerate(basis)]
                assert all(c.denominator == 1 for c in coords), (n, v)
                assert [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(len(divs))] == v, (n, v)
            residues = {tuple(v) for v in enumerated}
            for b in basis:
                head = [x % 24 for x in b[:-1]]
                assert tuple(head + [-sum(head)]) in residues or not any(head), (n, b)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37, 97, 1009, 1153])
def test_closed_form_basis_is_the_hermite_basis(p):
    # sympy's Hermite form of the enumerated lattice's (r_p[, r_{p^2}]) parts
    # is the diagonal of the closed-form basis's pivots
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    for n in (p, p * p):
        divs = divisors(n)
        hnf = hermite_normal_form(Matrix([v[1:] for v in _enumerated_lattice(n)]).T)
        basis = closed_form_basis(n)
        assert [[int(x) for x in hnf.row(i)] for i in range(hnf.rows)] == [
            [b.get(d, 0) for b in basis] for d in divs[1:]
        ], n
        assert all(sum(b.values()) == 0 and ligozat_check(n, b).ok for b in basis), n


def test_genus_zero_levels_have_trivial_classes():
    # X0(N) has genus 0 at N = 2, 3, 5, 7, 13, 4, 9 and 25, so every degree-0
    # cuspidal divisor is principal; at 4 and 9 the basis's second vector is
    # 8 and 3 times e_N - e_1, as 24 does not divide N - 1
    assert closed_form_basis(4)[1] == {1: -8, 4: 8} and closed_form_basis(9)[1] == {1: -3, 9: 3}
    for n in (2, 3, 5, 7, 13, 4, 9, 25):
        divs = divisors(n)
        sizes = _orbit_sizes(divs)
        for head in itertools.product(range(-3, 4), repeat=len(divs) - 1):
            if any(head):
                div = CuspDivisor.from_map(n, dict(zip(divs, list(head) + [-sum(c * s for c, s in zip(head, sizes))])))
                assert cuspidal_class_order(n, div) == 1, (n, head)


def test_cuspidal_class_order_prime_levels():
    import math

    for p in (11, 17, 19, 37, 67):
        want = (p - 1) // math.gcd(12, p - 1)
        got = cuspidal_class_order(p, CuspDivisor.from_map(p, {1: 1, p: -1}))
        assert got == want, (p, got, want)


def test_cuspidal_class_order_p2_levels():
    for p in (5, 7, 11, 13):
        want = (p * p - 1) // 24
        n = p * p
        c1 = cuspidal_class_order(n, CuspDivisor.from_map(n, {1: 1, n: -1}))
        cp = cuspidal_class_order(n, CuspDivisor.from_map(n, {p: 1, n: -(p - 1)}))
        assert c1 == want and cp == want, (p, c1, cp, want)


def test_cuspidal_class_order_validation():
    with pytest.raises(ValidationError):
        cuspidal_class_order(11, CuspDivisor.from_map(11, {1: 1}))  # degree 1
    with pytest.raises(ValidationError):
        cuspidal_class_order(12, CuspDivisor.from_map(11, {1: 1, 11: -1}))


def test_cuspidal_group_invariants():
    rep5 = cuspidal_group_invariants(5)
    assert rep5.invariants == () and rep5.closed_form_12 == (1, 1)
    rep7 = cuspidal_group_invariants(7)
    assert rep7.invariants == (2,) and rep7.closed_form_12 == (1, 2)
    rep11 = cuspidal_group_invariants(11)
    assert rep11.invariants == (5, 5) and rep11.closed_form_12 == (5, 1)
    rep13 = cuspidal_group_invariants(13)
    assert rep13.invariants == (7,) and rep13.closed_form_12 == (1, 7)


def test_cuspidal_table_closed_form():
    # the invariants are (a, a*b) without its 1s, a = (p-1)/(p-1, 12) and
    # b = (p+1)/(p+1, 12), for every prime 5 <= p < 2000
    count = 0
    for p in range(5, 2000):
        if not is_prime(p):
            continue
        a = (p - 1) // math.gcd(p - 1, 12)
        b = (p + 1) // math.gcd(p + 1, 12)
        rep = cuspidal_group_invariants(p)
        assert rep.invariants == tuple(x for x in (a, a * b) if x != 1), p
        assert rep.closed_form_12 == (a, b), p
        count += 1
    assert count == 301


def test_cuspidal_invariants_against_ling(monkeypatch):
    # every call checks the invariants against Ling's closed form: a basis
    # twice too coarse gives a group 4 times too large, and a raise
    import eisq.etacusp as etacusp

    real = etacusp._basis
    monkeypatch.setattr(etacusp, "_basis", lambda divs: [{d: 2 * v for d, v in r.items()} for r in real(divs)])
    for p in (5, 7, 1153):
        with pytest.raises(InternalCheckError, match=f"cuspidal group of X0\\({p}\\^2\\) has invariants"):
            cuspidal_group_invariants(p)


def test_special_functions():
    assert special_function(11) == {1: 12, 11: -12}
    assert special_function(13) == {1: 2, 13: -2}
    assert special_function(49) == {1: -1, 7: 8, 49: -7}
    for p in (7, 11, 13, 17, 19):
        r = special_function(p)
        assert ligozat_check(p, r).ok
    for p in (5, 7, 11, 13):
        r = special_function(p * p)
        assert ligozat_check(p * p, r).ok
    with pytest.raises(ValidationError):
        special_function(15)


def test_is_special(monkeypatch):
    levels = (11, 13, 49, 121, 1009, 1009**2)
    for n in levels:
        assert is_special(n, special_function(n))
    assert not is_special(49, {1: 24, 49: -24})
    # below p = 5 and away from the levels p and p^2 nothing is special
    assert not is_special(9, {1: 3, 3: -4, 9: 1})
    assert not is_special(15, {1: 1})
    # `special_function` checks the canonical product's own divisor against
    # the closed form, numerators and denominator, on every call, and so
    # does every `is_special` call: a divisor twice or half too large, or
    # wrong past its first cusp, raises
    real = etacusp._eta_numerators
    for wrong in (
        lambda nums: [2 * a for a in nums],
        lambda nums: [a // 2 for a in nums],
        lambda nums: nums[:1] + [2 * a for a in nums[1:]],
    ):
        monkeypatch.setattr(etacusp, "_eta_numerators", lambda divs, r, wrong=wrong: wrong(real(divs, r)))
        for n in levels:
            for call in (special_function, lambda n: is_special(n, {1: 1})):
                with pytest.raises(InternalCheckError, match=f"^special function divisor mismatch at level {n}: "):
                    call(n)
    # the message names the divisor computed and the closed form
    monkeypatch.setattr(etacusp, "_eta_numerators", lambda divs, r: [a // 2 for a in real(divs, r)])
    message = "special function divisor mismatch at level 11: 5/2*[1] + -5/2*[11] vs 5*[1] + -5*[11]"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        special_function(11)
    # the canonical product must be rational too
    monkeypatch.setattr(etacusp, "_ligozat", lambda divs, r: etacusp.LigozatReport(True, True, True, False))
    for n in levels:
        with pytest.raises(InternalCheckError, match=f"^special function fails rationality at level {n}$"):
            is_special(n, {})


def test_special_divisor_computed_once(monkeypatch):
    # `eta --special` computes the divisor of the canonical eta-product
    # twice: `special_function`'s check against the closed form, and the
    # printed divisor.  The other divisors are the closed-form basis
    # vectors' (1 at level p, 2 at p^2, numerators only) and the class
    # order's check of its eta-product; the Ligozat checks are
    # `special_function`'s, the printed report's and the class order's.
    # `_eta_numerators`, under every divisor, checks its degree by the
    # weight, with no Ligozat check.  The closed forms are read once, by
    # `special_function`, for the exponents and the one check against the
    # closed form; the command makes no `is_special` call
    import io
    from contextlib import redirect_stdout

    import eisq.etacusp as etacusp
    from eisq.cli import main

    calls = {name: [] for name in ("_eta_numerators", "_ligozat", "canonical_orders", "is_special")}
    for name, seen in calls.items():
        real = getattr(etacusp, name)
        monkeypatch.setattr(etacusp, name, lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    # a repeated call does the same work: nothing is kept between calls
    for n, counts in ((613, (4, 3, 1, 0)), (613**2, (5, 3, 1, 0)), (11, (4, 3, 1, 0)), (49, (5, 3, 1, 0)), (49, (5, 3, 1, 0))):
        for seen in calls.values():
            seen.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["eta", "--N", str(n), "--special"]) == 0
        assert tuple(map(len, calls.values())) == counts, n
        # `special_function`'s check, the printed divisor, and the class
        # order's check of its eta-product: the primitive part of the
        # canonical divisor has the canonical product
        assert [r for _, r in calls["_eta_numerators"]].count(special_function(n)) == 3, n


def test_cuspidal_invariants_against_sympy():
    # sympy's Smith form of the divisors, in the coordinates (m_1, m_p), of a
    # basis of the enumerated lattice at every prime 5 <= p < 2000.  At p^2
    # the Ligozat conditions depend on p mod 24 only, so each class is
    # enumerated once, at its least prime, and sympy's Hermite form of the
    # (r_p, r_{p^2}) parts picks a basis
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

    bases = {}
    count = 0
    for p in range(5, 2000):
        if not is_prime(p):
            continue
        if p % 24 not in bases:
            hnf = hermite_normal_form(Matrix([v[1:] for v in _enumerated_lattice(p * p)]).T)
            bases[p % 24] = [(int(hnf[0, j]), int(hnf[1, j])) for j in range(2)]
        n = p * p
        images = [eta_divisor(n, {1: -a - b, p: a, n: b}).int_vector()[:2] for a, b in bases[p % 24]]
        sym = smith_normal_form(Matrix(images))
        expected = tuple(sorted(d for d in (abs(sym[0, 0]), abs(sym[1, 1])) if d != 1))
        assert cuspidal_group_invariants(p).invariants == expected, p
        count += 1
    assert len(bases) == 8 and count == 301


def _index_in_ambient(rows, k):
    # index of a full-rank row lattice in Z^k: gcd of all maximal minors
    import itertools
    import math

    from sympy import Matrix

    g = 0
    for combo in itertools.combinations(range(len(rows)), k):
        minor = Matrix([rows[i] for i in combo]).det()
        g = math.gcd(g, int(minor))
    return g


def _order_by_index(n, div):
    # order of t modulo L equals index(L) / index(L + Z*t), with L the divisors
    # of the closed-form basis projected onto the first tau-1 coordinates,
    # which determine the last through degree 0
    k = len(divisors(n)) - 1
    proj = [list(eta_divisor(n, r).int_vector()[:k]) for r in closed_form_basis(n)]
    target = list(div.int_vector()[:k])
    return _index_in_ambient(proj, k) // _index_in_ambient(proj + [target], k)


def test_eta_lattice_orders_against_index_formula():
    for n, coeffs in ((11, {1: 1, 11: -1}), (49, {7: 1, 49: -6}), (121, {1: 1, 121: -1}), (169, {13: 1, 169: -12})):
        div = CuspDivisor.from_map(n, coeffs)
        assert cuspidal_class_order(n, div) == _order_by_index(n, div), n


def test_lattice_order_against_index_formula():
    # 8 random degree-0 divisors at each level p and p^2, p < 200
    rng = random.Random(8)
    count = 0
    for p in range(2, 200):
        if not is_prime(p):
            continue
        for n in (p, p * p):
            divs = divisors(n)
            sizes = _orbit_sizes(divs)
            for _ in range(8):
                head = [rng.randrange(-40, 41) for _ in divs[:-1]]
                div = CuspDivisor.from_map(n, dict(zip(divs, head + [-sum(c * s for c, s in zip(head, sizes))])))
                assert cuspidal_class_order(n, div) == _order_by_index(n, div), (n, div)
                count += 1
    assert count == 736


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # an eta-product whose divisor is twice the order times D
        pytest.param(lambda order, r: (order, {d: 2 * v for d, v in r.items()}), "has divisor", id="divisor"),
        # half the order 2 of [7] - 6[49]: its eta-product has half-integer exponents
        pytest.param(
            lambda order, r: (order // 2, {d: Fraction(v, 2) for d, v in r.items()}), "fails Ligozat", id="ligozat"
        ),
        # twice the order, with an eta-product whose half is rational
        pytest.param(
            lambda order, r: (2 * order, {d: 2 * v for d, v in r.items()}), "is already the divisor", id="least"
        ),
    ],
)
def test_class_order_check_exits_3(monkeypatch, corrupt, message):
    # each always-on check of `cuspidal_class_order` catches a wrong order or
    # eta-product, and `eta --special` exits 3 naming the level and divisor
    import io
    from contextlib import redirect_stderr, redirect_stdout

    import eisq.etacusp as etacusp
    from eisq.cli import main

    real = etacusp._order_and_exponents
    monkeypatch.setattr(etacusp, "_order_and_exponents", lambda divs, div: corrupt(*real(divs, div)))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(["eta", "--N", "49", "--special"]) == 3
    assert message in err.getvalue() and "at level 49" in err.getvalue() and "1*[7] + -6*[49]" in err.getvalue()


def test_divisor_representation():
    d = CuspDivisor.from_map(49, {7: 1, 49: -6})
    assert d.coeff(7) == 1 and d.coeff(1) == 0
    assert all(type(d.coeff(c)) is Fraction for c in (1, 7, 49))
    assert d.degree() == 0
    assert d.int_vector() == (0, 1, -6) and d.den == 1
    frac = CuspDivisor(49, (Fraction(1, 2), Fraction(0), Fraction(0)))
    assert frac.nums == (1, 0, 0) and frac.den == 2 and frac.coeff(1) == Fraction(1, 2)
    assert frac.scale(2) == CuspDivisor(49, (1, 0, 0)) and frac.scale(Fraction(2, 3)).coeff(1) == Fraction(1, 3)
    with pytest.raises(ValidationError, match=r"^divisor is not integral: 1/2\*\[1\]$"):
        frac.int_vector()
    # one divisor from every form: the positional tuple of Fractions, from_map
    # on ints, and the canonical divisor over (n - 1)/24; equal divisors hash equal
    for p in (5, 11, 101):
        n = p * p
        forms = [
            CuspDivisor(n, (Fraction(0), Fraction(1), Fraction(-(p - 1)))),
            CuspDivisor.from_map(n, {p: 1, n: -(p - 1)}),
            eta_divisor(n, special_function(n)).scale(Fraction(1, (n - 1) // 24)),
        ]
        assert all(f == forms[0] and hash(f) == hash(forms[0]) for f in forms), n
        assert forms[0].nums == (0, 1, -(p - 1)) and forms[0].den == 1, n
    # from_map reads any exact number Fraction() did, float and Decimal too
    assert CuspDivisor.from_map(49, {7: 0.5, 49: Decimal(-3)}) == CuspDivisor(49, (0, 1, -6), 2)
    # lowest terms over a positive denominator, whatever the input's signs
    negative = CuspDivisor(49, (2, 0, -2), -4)
    assert negative.nums == (-1, 0, 1) and negative.den == 2
    assert negative == CuspDivisor(49, (Fraction(-1, 2), 0, Fraction(1, 2)))
    with pytest.raises(ValidationError, match="denominator 0"):
        CuspDivisor(49, (0, 0, 0), 0)
    # `eta --N 49 --r 1,-1,0` (golden eta-49-r-failing) prints this divisor
    failing = eta_divisor(49, {1: 1, 7: -1, 49: 0})
    assert repr(failing) == "7/4*[1] + -1/4*[7] + -1/4*[49]" and failing.den == 4
    assert repr(eta_divisor(49, {})) == "0"
    # the constructor checks the entry count against the level: 3 at the
    # square of a positive integer, 2 at any other level, 0 included; the
    # class order checks the level
    for level, nums in ((11, (1, -1, 0)), (49, (1, -1)), (12, ()), (-9, (1,)), (0, (1, 2, 3))):
        size = 3 if level == 49 else 2
        with pytest.raises(ValidationError, match=f"^a divisor at level {level} has {size} entries, got {len(nums)}$"):
            CuspDivisor(level, nums)
    with pytest.raises(ValidationError, match="divisor level mismatch"):
        cuspidal_class_order(11, CuspDivisor(12, (1, -1)))


def test_cusp_divisor_rejects_a_non_divisor():
    with pytest.raises(ValidationError, match="7 does not divide the level 121"):
        CuspDivisor.from_map(121, {7: 1, 1: 1})


def test_cusp_divisor_coeff_rejects_a_non_divisor():
    d = CuspDivisor.from_map(121, {1: 1, 121: -1})
    with pytest.raises(ValidationError, match="7 does not divide the level 121"):
        d.coeff(7)


def test_non_integral_exponents_raise():
    # an exponent is read as an int only when it is one: 25/2 is not read as
    # 12, 1.9 not as 1 and 0.5 not as 0; integral Fractions and floats are
    for call in (
        lambda: ligozat_check(25, {1: Fraction(25, 2), 5: Fraction(-25, 2)}),
        lambda: eta_divisor(25, {1: 1.9, 5: -1.9}),
        lambda: prime_exponent(25, {1: 0.5, 5: 0.7}),
    ):
        with pytest.raises(ValidationError, match=r"^exponent (25/2|1\.9|0\.5) at divisor 1 is not an integer$"):
            call()
    with pytest.raises(ValidationError, match="^exponent -1/3 at divisor 25 is not an integer$"):
        eta_divisor(25, {1: 1, 5: 0, 25: Fraction(-1, 3)})
    assert ligozat_check(11, {1: Fraction(24, 2), 11: Fraction(-12)}).ok
    assert eta_divisor(49, {1: -1.0, 7: Fraction(16, 2), 49: -7}) == eta_divisor(49, {1: -1, 7: 8, 49: -7})
    assert prime_exponent(169, {1: Fraction(-1), 13: 14.0, 169: -13}) == -12


def _fraction_eta_divisor(divs, r):
    n = divs[-1]
    nums = [sum(rd * math.gcd(c, d) ** 2 * (n // d) for d, rd in r.items()) for c in divs]
    return [Fraction(a, 24 * math.gcd(c * c, n)) for a, c in zip(nums, divs)]


def _render(divs, coeffs):
    return " + ".join(f"{c}*[{d}]" for d, c in zip(divs, coeffs) if c) or "0"


def _integral(divs, coeffs):
    if any(c.denominator != 1 for c in coeffs):
        raise ValidationError(f"divisor is not integral: {_render(divs, coeffs)}")
    return [int(c) for c in coeffs]


def _fraction_class_order(n, div):
    """The class order and its checks on lists of Fractions, as the package
    computed them before they moved to integer numerators: the oracle of
    `etacusp._class_order`, down to its exceptions' words.  It reads the
    divisor only through `div.coeff(d)`, besides its level and divisors."""
    divs = divisors(n)
    if div.level != n or div.divisors() != divs:
        raise ValidationError("divisor level mismatch")
    coeffs = [div.coeff(d) for d in divs]
    shown = _render(divs, coeffs)
    degree = sum(c * s for c, s in zip(coeffs, _orbit_sizes(divs)))
    if degree != 0:
        raise ValidationError(f"divisor has degree {degree}, not 0")
    basis = _basis(divs)
    rows = [_integral(divs, _fraction_eta_divisor(divs, b))[:-1] for b in basis]
    target = _integral(divs, coeffs)[:-1]
    det = _determinant(rows)
    nums = [_determinant(rows[:i] + [target] + rows[i + 1 :]) for i in range(len(rows))]
    order = abs(det) // math.gcd(det, *nums)
    coords = [order * num // det for num in nums]
    r = {d: sum(c * b.get(d, 0) for c, b in zip(coords, basis)) for d in divs}
    image = _fraction_eta_divisor(divs, r)
    if image != [order * c for c in coeffs]:
        raise InternalCheckError(
            f"eta-product {r} at level {n} has divisor {_render(divs, image)}, not {order}*({shown})"
        )
    if not ligozat_check(n, r).ok:
        raise InternalCheckError(f"eta-product {r} of {order}*({shown}) at level {n} fails Ligozat")
    for ell, _ in factor(order).factors:
        if all(v % ell == 0 for v in r.values()) and ligozat_check(n, {d: v // ell for d, v in r.items()}).ok:
            raise InternalCheckError(f"{order // ell}*({shown}) at level {n} is already the divisor of a rational eta-product")
    return order, r


def _outcome(call):
    try:
        return call()
    except (ValidationError, InternalCheckError) as exc:
        return type(exc), str(exc)


def test_integer_class_order_against_fractions():
    # at every level p and p^2, 5 <= p < 200: random integral degree-0
    # divisors, the canonical ones, and inputs that must be rejected (not
    # integral, of nonzero degree, of another level), each with the same
    # (order, r) or the same exception and words on both paths; a divisor
    # with too many coefficients is rejected by the constructor
    rng = random.Random(29)
    count = rejected = 0
    for p in (q for q in range(5, 200) if is_prime(q)):
        for n in (p, p * p):
            divs = divisors(n)
            sizes = _orbit_sizes(divs)
            cases = [CuspDivisor.from_map(n, {1: 1, n: -1}), _eta_divisor_scaled_to_primitive(n)]
            if n != p:
                cases.append(CuspDivisor.from_map(n, {p: 1, n: -(p - 1)}))
            for _ in range(6):
                head = [rng.randrange(-60, 61) for _ in divs[:-1]]
                cases.append(CuspDivisor.from_map(n, dict(zip(divs, head + [-sum(c * s for c, s in zip(head, sizes))]))))
            half = Fraction(1, 2)
            cases += [
                CuspDivisor(n, (half,) + (Fraction(0),) * (len(divs) - 2) + (-half,)),  # degree 0, not integral
                CuspDivisor(n, (half,) + (Fraction(0),) * (len(divs) - 1)),  # degree 1/2
                CuspDivisor.from_map(n, {1: 1}),  # degree 1
                CuspDivisor.from_map(n, {1: 2, n: -1}),
                CuspDivisor.from_map(p if n != p else p * p, {1: 1, p: -1}),  # the other level
            ]
            with pytest.raises(ValidationError, match=f"^a divisor at level {n} has {len(divs)} entries, got 4$"):
                CuspDivisor(n, (Fraction(1), Fraction(-1), Fraction(0), Fraction(0)))
            for div in cases:
                want = _outcome(lambda: _fraction_class_order(n, div))
                assert _outcome(lambda: etacusp._class_order(divs, div)) == want, (n, div)
                rejected += isinstance(want[0], type)
                count += 1
    # 44 primes, 13 cases at p and 14 at p^2, 5 of them rejected at each level
    assert count == 44 * 27 and rejected == 44 * 2 * 5


def _eta_divisor_scaled_to_primitive(n):
    # the canonical eta-product's divisor over the gcd of its entries
    vec = eta_divisor(n, special_function(n)).int_vector()
    g = math.gcd(*vec)
    return CuspDivisor(n, tuple(Fraction(x // g) for x in vec))


def test_class_order_calls_no_fraction_in_etacusp(monkeypatch):
    # a divisor of ints stays ints: from_map, its degree, n*D, the class
    # order, its check of r on the divisor of r, and the canonical divisor
    # against its closed form make no Fraction in etacusp, in a warm
    # class order and a warm verdict alike
    from eisq import descent

    def verdict(div):
        return descent.verdict_rational_divisor(101**2, special_function(101**2), div, -9983, 17)

    verdict(CuspDivisor.from_map(101**2, {101: 1, 101**2: -100}))  # warm the class data

    def no_fraction(*args):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(etacusp, "Fraction", no_fraction)
    divs = {p: CuspDivisor.from_map(p * p, {p: 1, p * p: -(p - 1)}) for p in (11, 101, 1153)}
    prime = CuspDivisor.from_map(11, {1: 1, 11: -1})
    assert cuspidal_class_order(11, prime) == 5
    for p, div in divs.items():
        assert div.degree() == 0 and div.scale(p) == CuspDivisor.from_map(p * p, {p: p, p * p: -p * (p - 1)})
        assert cuspidal_class_order(p * p, div) == (p * p - 1) // 24
    v = verdict(divs[101])
    assert v.trace[0].value == "n = 425"


def test_images_read_integer_numerators(monkeypatch):
    # the basis images come from the integer numerators of each divisor, with
    # no CuspDivisor built, and keep both of its checks as raises: the
    # divisor must be integral, and of degree 0 at weight 0
    built = []
    post_init = CuspDivisor.__post_init__
    monkeypatch.setattr(CuspDivisor, "__post_init__", lambda self: built.append(self.level) or post_init(self))
    for n in (11, 13, 121, 10201):
        divs = etacusp.divisors(n)
        images = etacusp._images(divs, _basis(divs))
        assert built == [], n
        assert images == [eta_divisor(n, r).int_vector()[:-1] for r in _basis(divs)], n
        built.clear()
    with pytest.raises(ValidationError, match=r"^divisor is not integral: -5/12\*\[1\] \+ 5/12\*\[11\]$"):
        etacusp._images(etacusp.divisors(11), [{1: -1, 11: 1}])
    monkeypatch.setattr(etacusp, "_orbit_sizes", lambda divs: [2] + [1] * (len(divs) - 1))
    with pytest.raises(InternalCheckError, match=r"^eta divisor of weight 0 has degree -5 at level 11: \{1: -12, 11: 12\}$"):
        etacusp._images(etacusp.divisors(11), _basis(etacusp.divisors(11)))


def test_divisor_checks_build_no_divisor(monkeypatch):
    # the class order checks the divisor of r against order*D, and
    # `special_function` the canonical divisor against the closed form, on
    # integer numerators: a warm verdict builds no divisor, and
    # `eta --special` only the printed divisor and its primitive part.  A
    # divisor is built for a raise's message, which stays as it was
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from eisq import descent
    from eisq.cli import main

    n, r = 101**2, special_function(101**2)
    div = CuspDivisor.from_map(n, {101: 1, n: -100})

    def verdict():
        return descent.verdict_rational_divisor(n, r, div, -9983, 17)

    def eta_special():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["eta", "--N", str(n), "--special", "--format", "json"])
        return code, err.getvalue()

    verdict()  # warm the class data
    built = []
    post_init = CuspDivisor.__post_init__
    monkeypatch.setattr(CuspDivisor, "__post_init__", lambda self: built.append(self.level) or post_init(self))
    assert verdict().trace[0].value == "n = 425" and built == []
    built.clear()
    assert eta_special() == (0, "") and built == [n, n]
    monkeypatch.undo()
    # an order twice too large: the divisor of r is not 850*D
    real = etacusp._order_and_exponents
    monkeypatch.setattr(etacusp, "_order_and_exponents", lambda divs, vec: (2 * real(divs, vec)[0], real(divs, vec)[1]))
    message = f"eta-product {r} at level {n} has divisor {eta_divisor(n, r)}, not 850*({div})"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        verdict()
    monkeypatch.undo()
    # a closed form twice too large at level p^2: n_p2 = 850 where it is 425
    real_orders = etacusp.canonical_orders
    monkeypatch.setattr(etacusp, "canonical_orders", lambda p: (real_orders(p)[0], 2 * real_orders(p)[1]))
    message = f"special function divisor mismatch at level {n}: {eta_divisor(n, r)} vs 850*[101] + -85000*[10201]"
    for call in (special_function, lambda n: is_special(n, r), lambda n: verdict()):
        with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
            call(n)
    assert eta_special() == (3, f"internal consistency failure: {message}\n")
