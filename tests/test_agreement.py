"""Verdicts that reach one conclusion by two routes, over whole slices of
(p, q, K): the library-loop traffic in which each K recurs across many p
and each level across many K."""

from eisq.arith import is_prime
from eisq.classgroup import is_fundamental
from eisq.descent import (
    NONTORSION,
    neumann_setzer,
    verdict_ns_curve,
    verdict_p2_level,
    verdict_prime_level_2,
    verdict_rational_divisor,
)
from eisq.etacusp import CuspDivisor, special_function


def _fundamental_discs(bound):
    return [d for d in range(-3, -bound, -1) if d % 4 in (0, 1) and is_fundamental(d)]


def test_p2_level_agrees_with_rational_divisor():
    # level p^2, canonical eta-product with divisor n*([p] - (p-1)[p^2]),
    # n = (p^2-1)/24: the direct criterion and the general one agree on every
    # (p, q, K) with p < 100, prime q >= 5 dividing p+1 and n, |K| < 1000
    discs = _fundamental_discs(1000)
    cases = conclusions = 0
    for p in filter(is_prime, range(5, 100)):
        n = p * p
        r, div = special_function(n), CuspDivisor.from_map(n, {p: 1, n: -(p - 1)})
        for q in filter(is_prime, range(5, p + 2)):
            if (p + 1) % q or (n - 1) // 24 % q:
                continue
            for k in discs:
                direct = verdict_p2_level(p, k, q).conclusion
                general = verdict_rational_divisor(n, r, div, k, q).conclusion
                assert direct == general, (p, q, k)
                cases += 1
                conclusions += direct == NONTORSION
    assert cases == 4270
    assert 0 < conclusions < cases


def test_ns_corollary_agrees_with_prime_level_2():
    # at the Neumann-Setzer primes p = u^2 + 64 <= 2273 the corollary is
    # nontorsion exactly when the q = 2 criterion is and u = +-3 (mod 8)
    primes = [p for p in range(73, 2274) if is_prime(p) and neumann_setzer(p).is_ns_prime]
    assert primes == [73, 89, 113, 233, 353, 593, 1153, 1289, 1433, 1913, 2089, 2273]
    discs = _fundamental_discs(3000)
    differ = 0
    for p in primes:
        simple = neumann_setzer(p).two_eisenstein_simple
        assert simple == (neumann_setzer(p).u % 8 in (3, 5))
        for k in discs:
            ns = verdict_ns_curve(p, k).conclusion == NONTORSION
            two = verdict_prime_level_2(p, k).conclusion == NONTORSION
            assert ns == (two and simple), (p, k)
            differ += ns != two
    # the verdicts differ only where u = +-1 (mod 8) leaves the quotient not simple
    assert (len(primes) * len(discs), differ) == (10932, 532)
