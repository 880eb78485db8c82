import itertools
import math
import random
from fractions import Fraction

import pytest

from eisq.arith import is_prime
from eisq.errors import InternalCheckError, ValidationError
from eisq.etacusp import (
    CuspDivisor,
    _eta_exponent_lattice,
    _orbit_sizes,
    cuspidal_class_order,
    cuspidal_group_invariants,
    divisors,
    eta_divisor,
    invariant_factors,
    is_special,
    lattice_order,
    ligozat_check,
    special_function,
)

PRIMES_5_50 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def eta_exponent_lattice(n):
    return _eta_exponent_lattice(divisors(n))


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
    assert all(c == 0 for c in zero.coeffs)


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
                non_integral += not image.is_integral()
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
            columns = [eta_divisor(n, {d: 1}).coeffs for d in divs]
            assert _determinant([list(row) for row in zip(*columns)]) == det, n


def test_eta_divisor_degree_zero_on_lattice():
    rng = random.Random(2)
    for n in (11, 49, 121, 169):
        gens = eta_exponent_lattice(n)
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
            assert image.is_integral()


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
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for n in (p, p * p):
            divs = divisors(n)
            basis = [[r.get(d, 0) for d in divs] for r in eta_exponent_lattice(n)]
            assert len(basis) == len(divs) - 1
            enumerated = _enumerated_lattice(n)
            for v in enumerated:
                assert lattice_order(basis, v) == 1, (n, v)
            for b in basis:
                assert lattice_order(enumerated, b) == 1, (n, b)


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
    assert rep5.invariants == () and rep5.order == 1
    rep7 = cuspidal_group_invariants(7)
    assert rep7.invariants == (2,)
    assert rep7.closed_form_12 == (1, 2) and rep7.matches_12
    assert rep7.closed_form_24 == (1, 1) and not rep7.matches_24
    rep11 = cuspidal_group_invariants(11)
    assert rep11.invariants == (5, 5) and rep11.matches_12
    rep13 = cuspidal_group_invariants(13)
    assert rep13.invariants == (7,) and rep13.matches_12


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
        assert rep.matches_12, p
        count += 1
    assert count == 301


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


def test_is_special():
    for n in (11, 13, 49, 121, 1009, 1009**2):
        r = special_function(n)
        image = eta_divisor(n, r)
        assert is_special(n, r, image)
        # a canonical r must come with its own divisor
        with pytest.raises(InternalCheckError, match="divisor mismatch"):
            is_special(n, r, image.scale(2))
    r = {1: 24, 49: -24}
    assert not is_special(49, r, eta_divisor(49, r))
    # below p = 5 and away from the levels p and p^2 nothing is special
    r = {1: 3, 3: -4, 9: 1}
    assert not is_special(9, r, eta_divisor(9, r))
    assert not is_special(15, {1: 1}, CuspDivisor(15, (Fraction(0), Fraction(0))))


def test_special_divisor_computed_once(monkeypatch):
    # `eta --special` checks the canonical eta-product on the divisor it
    # prints: 4 divisors and 8 Ligozat checks at level p^2 before, when
    # special_function computed the same divisor again; `_eta_divisor`
    # checks its degree by the weight, with no Ligozat check of its own
    import io
    from contextlib import redirect_stdout

    import eisq.etacusp as etacusp
    from eisq.cli import main

    calls = {name: [] for name in ("_eta_divisor", "_ligozat", "_check_special")}
    for name, seen in calls.items():
        real = getattr(etacusp, name)
        monkeypatch.setattr(etacusp, name, lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    for n, counts in ((613, (2, 3, 1)), (613**2, (3, 4, 1)), (11, (2, 3, 1)), (49, (3, 4, 1))):
        for seen in calls.values():
            seen.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["eta", "--N", str(n), "--special"]) == 0
        assert tuple(map(len, calls.values())) == counts, n
        assert [r for _, r in calls["_eta_divisor"]].count(special_function(n)) == 1, n
    # a second identical call builds no lattice: only the printed divisor,
    # its Ligozat check and `is_special`'s checks run again
    for seen in calls.values():
        seen.clear()
    with redirect_stdout(io.StringIO()):
        assert main(["eta", "--N", "49", "--special"]) == 0
    assert tuple(map(len, calls.values())) == (1, 2, 1)


def test_lattice_order_shuffle_invariance():
    gens = [g for g in eta_exponent_lattice(49)]
    images = [eta_divisor(49, g).int_vector() for g in gens]
    target = CuspDivisor.from_map(49, {7: 1, 49: -6}).int_vector()
    rng = random.Random(4)
    base = lattice_order(images, target)
    for _ in range(5):
        shuffled = images[:]
        rng.shuffle(shuffled)
        assert lattice_order(shuffled, target) == base


def test_lattice_order_rejects_outside_span():
    with pytest.raises(ValidationError):
        lattice_order([[2, 0, 0]], [0, 1, 0])


def test_invariant_factors_basics():
    assert invariant_factors([[2, 0], [0, 3]], 2) == [6]
    assert invariant_factors([[1, 0], [0, 1]], 2) == []
    assert invariant_factors([[2, 0], [0, 2]], 2) == [2, 2]
    with pytest.raises(ValidationError):
        invariant_factors([[2, 0]], 2)


def test_invariant_factors_against_sympy():
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(0)
    checked = 0
    while checked < 100:
        k = rng.randrange(1, 4)
        g = rng.randrange(k, k + 3)
        gens = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(g)]
        sym = smith_normal_form(Matrix([[row[i] for row in gens] for i in range(k)]))
        diag = [abs(sym[i, i]) for i in range(min(k, g))]
        if 0 in diag:
            continue
        assert invariant_factors(gens, k) == sorted(d for d in diag if d != 1)
        checked += 1


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


def test_lattice_order_against_index_formula():
    # order of t modulo L equals index(L) / index(L + Z*t)
    rng = random.Random(8)
    checked = 0
    while checked < 80:
        k = rng.randrange(1, 4)
        rows = [[rng.randrange(-6, 7) for _ in range(k)] for _ in range(k + 1)]
        if _index_in_ambient(rows, k) == 0:
            continue
        target = [rng.randrange(-6, 7) for _ in range(k)]
        expected = _index_in_ambient(rows, k) // _index_in_ambient(rows + [target], k)
        assert lattice_order(rows, target) == expected
        checked += 1


def test_eta_lattice_orders_against_index_formula():
    for n, div in (
        (11, CuspDivisor.from_map(11, {1: 1, 11: -1})),
        (49, CuspDivisor.from_map(49, {7: 1, 49: -6})),
        (121, CuspDivisor.from_map(121, {1: 1, 121: -1})),
        (169, CuspDivisor.from_map(169, {13: 1, 169: -12})),
    ):
        gens = [eta_divisor(n, r).int_vector() for r in eta_exponent_lattice(n)]
        # project onto the degree-0 sublattice coordinates (first tau-1 coords
        # determine the last through degree 0), keeping full rank
        k = len(divisors(n)) - 1
        proj = [list(g[:k]) for g in gens]
        target = list(div.int_vector()[:k])
        expected = _index_in_ambient(proj, k) // _index_in_ambient(proj + [target], k)
        assert cuspidal_class_order(n, div) == expected


def test_divisor_representation():
    d = CuspDivisor.from_map(49, {7: 1, 49: -6})
    assert d.coeff(7) == 1 and d.coeff(1) == 0
    assert d.degree() == 0
    assert d.int_vector() == (0, 1, -6)
    frac = CuspDivisor(49, (Fraction(1, 2), Fraction(0), Fraction(0)))
    assert not frac.is_integral()
    with pytest.raises(ValidationError):
        frac.int_vector()


def test_cusp_divisor_rejects_a_non_divisor():
    with pytest.raises(ValidationError, match="7 does not divide the level 121"):
        CuspDivisor.from_map(121, {7: 1, 1: 1})


def test_cusp_divisor_coeff_rejects_a_non_divisor():
    d = CuspDivisor.from_map(121, {1: 1, 121: -1})
    with pytest.raises(ValidationError, match="7 does not divide the level 121"):
        d.coeff(7)
