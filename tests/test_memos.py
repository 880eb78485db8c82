"""The two per-process memos: h of a fundamental discriminant and the
eta-divisor lattice of a level.  A hit must equal a fresh computation, the
kept values are immutable, the memos are bounded, and an input that raises
raises again (nothing is kept for it).  `conftest.py` empties both before
every test."""

import random

import pytest

from eisq import classgroup, etacusp
from eisq.arith import is_prime
from eisq.cli import main
from eisq.errors import InternalCheckError, ResourceCapError, ValidationError

count_h = classgroup._fundamental_class_number
lattice = etacusp._lattice_generators


def _fundamental_sample(rng, lo, hi, k):
    out = set()
    while len(out) < k:
        d = -rng.randrange(lo, hi)
        if d % 4 in (0, 1) and classgroup.is_fundamental(d):
            out.add(d)
    return sorted(out)


def test_class_number_hit_equals_fresh_count():
    rng = random.Random(16)
    discs = [-3, -4, -7, -8, -4 * 10009, -8 * 10007]
    discs += _fundamental_sample(rng, 5, 10**4, 20) + _fundamental_sample(rng, 10**6, 10**7, 5)
    assert all(map(classgroup.is_fundamental, discs))
    first = [classgroup.fundamental_class_number(d) for d in discs]
    assert count_h.cache_info().misses == len(discs)
    assert [classgroup.fundamental_class_number(d) for d in discs] == first
    assert count_h.cache_info().hits == len(discs)
    # the function under the memo, and the form list, agree with what it kept
    assert [count_h.__wrapped__(d) for d in discs] == first
    assert [len(classgroup.reduced_forms(d)) for d in discs[:26]] == first[:26]


def test_class_number_callers_share_the_memo():
    # class_number(p) (Selmer's twists), class_number_of_disc and the Heegner
    # set-up all reach the one count
    from eisq.descent import heegner_setup

    assert classgroup.class_number(47) == 5
    assert classgroup.class_number_of_disc(-47) == 5
    assert heegner_setup(11, -47).h_k == 5
    assert (count_h.cache_info().misses, count_h.cache_info().hits) == (1, 2)
    # a non-fundamental D is listed, not counted, so it is not kept
    assert classgroup.class_number_of_disc(-36) == 2
    assert count_h.cache_info().currsize == 1


def test_memos_are_bounded_by_module_constants():
    assert count_h.cache_info().maxsize == classgroup.CLASS_NUMBER_MEMO
    assert lattice.cache_info().maxsize == etacusp.LATTICE_MEMO


def test_class_number_memo_keys_on_type():
    # a float equal to a counted D is not read back: it fails as it would uncached
    assert classgroup.fundamental_class_number(-7) == 1
    with pytest.raises(TypeError):
        classgroup.fundamental_class_number(-7.0)


def _fresh_generators(divs):
    return tuple(etacusp._eta_divisor(divs, r).int_vector() for r in etacusp._eta_exponent_lattice(list(divs)))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37, 97, 1009, 1153])
def test_lattice_hit_equals_fresh_build(p):
    for divs in ((1, p), (1, p, p * p)):
        gens = lattice(divs)
        assert lattice(divs) is gens
        assert gens == _fresh_generators(divs) == lattice.__wrapped__(divs)
        # immutable: a tuple of int tuples, one per basis vector
        assert type(gens) is tuple and len(gens) == len(divs) - 1
        assert all(type(g) is tuple and len(g) == len(divs) and all(type(x) is int for x in g) for g in gens)
    assert lattice.cache_info().hits == 2


def test_lattice_shared_by_orders_and_invariants():
    rng = random.Random(16)
    primes = [p for p in range(5, 400) if is_prime(p)]
    for p in rng.sample(primes, 12):
        n = p * p
        div = etacusp.CuspDivisor.from_map(n, {p: 1, n: -(p - 1)})
        order = etacusp.cuspidal_class_order(n, div)
        report = etacusp.cuspidal_group_invariants(p)
        assert order == (n - 1) // 24
        assert etacusp.invariant_factors([g[:2] for g in _fresh_generators((1, p, n))], 2) == list(report.invariants)
        assert etacusp.lattice_order(list(_fresh_generators((1, p, n))), div.int_vector()) == order
    assert (lattice.cache_info().misses, lattice.cache_info().hits) == (12, 12)


def test_errors_are_not_kept():
    over = -(classgroup.MAX_ENUMERATED_DISC + 7)  # fundamental, past the cap
    for _ in range(2):
        with pytest.raises(ResourceCapError):
            classgroup.fundamental_class_number(over)
        with pytest.raises(ValidationError):
            etacusp.cuspidal_group_invariants(15)
        with pytest.raises(ValidationError):
            etacusp.cuspidal_class_order(12, etacusp.CuspDivisor(12, ()))
        assert main(["eta", "--N", "12", "--special"]) == 2
    assert count_h.cache_info().currsize == lattice.cache_info().currsize == 0


def test_non_fundamental_disc_raises_and_is_not_kept():
    # -40028 = 4 * -10007 is the order of conductor 2 in Q(sqrt(-10007)),
    # with 77 classes; the count at a fundamental D would give it 154
    for _ in range(2):
        with pytest.raises(ValidationError, match="discriminant -40028 is not fundamental"):
            classgroup.fundamental_class_number(-40028)
    assert count_h.cache_info().currsize == 0 and count_h.cache_info().hits == 0
    assert classgroup.class_number_of_disc(-40028) == len(classgroup.reduced_forms(-40028)) == 77
    assert count_h.cache_info().currsize == 0


def test_failed_build_is_retried(monkeypatch):
    # a lattice check that fails on a miss fails again on the next call, and
    # the level is built once the check passes
    ligozat = etacusp._ligozat
    monkeypatch.setattr(etacusp, "_ligozat", lambda divs, r: ligozat(divs, {**r, 1: r.get(1, 0) + 1}))
    div = etacusp.CuspDivisor.from_map(49, {7: 1, 49: -6})
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="not rational"):
            etacusp.cuspidal_class_order(49, div)
    monkeypatch.setattr(etacusp, "_ligozat", ligozat)
    assert etacusp.cuspidal_class_order(49, div) == 2
    assert lattice.cache_info().currsize == 1
