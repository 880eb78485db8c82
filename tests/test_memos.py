"""The per-process memos: h of a fundamental discriminant, the order of
the class of a prime above p in K, and the last sigma table built by each
of the two sieves.  A hit must equal a fresh computation, each memo is
bounded, an input that raises raises again (nothing is kept for it), and
no caller can change what a memo holds.  `conftest.py` empties all four,
and the sieve that form enumeration keeps, before every test."""

import importlib
import inspect
import io
import math
import pkgutil
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

import eisq
from eisq import classgroup, descent, etacusp, modforms
from eisq.arith import factor, is_prime, jacobi
from eisq.cli import main
from eisq.errors import InternalCheckError, ResourceCapError, ValidationError
from test_classgroup import form_pow

count_h = classgroup._fundamental_class_number
prime_order = descent._prime_class_order
sieve = modforms._sigma_table
pairs = modforms._pair_sigma_table


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
    # a Selmer twist over Q(sqrt(-p)), which reads h(-p), the Heegner set-up
    # and a direct call all reach the one count
    from eisq.descent import heegner_setup
    from eisq.selmer import build_twist

    build_twist(47, 5)
    assert heegner_setup(11, -47).h_k == 5
    assert classgroup.fundamental_class_number(-47) == 5
    assert (count_h.cache_info().misses, count_h.cache_info().hits) == (1, 2)
    assert count_h.cache_info().currsize == 1


def test_memos_are_bounded_by_module_constants():
    assert count_h.cache_info().maxsize == classgroup.CLASS_NUMBER_MEMO
    assert prime_order.cache_info().maxsize == classgroup.CLASS_NUMBER_MEMO


def test_class_number_memo_keys_on_type():
    # a float equal to a counted D is not read back: it fails as it would uncached
    assert classgroup.fundamental_class_number(-7) == 1
    with pytest.raises(TypeError):
        classgroup.fundamental_class_number(-7.0)


def test_errors_are_not_kept():
    over = -(classgroup.MAX_ENUMERATED_DISC + 7)  # fundamental, past the cap
    for _ in range(2):
        with pytest.raises(ResourceCapError):
            classgroup.fundamental_class_number(over)
        with pytest.raises(ValidationError):
            etacusp.cuspidal_group_invariants(15)
        with pytest.raises(ValidationError):
            etacusp.cuspidal_class_order(12, etacusp.CuspDivisor(12, (1, -1)))
        assert main(["eta", "--N", "12", "--special"]) == 2
    assert count_h.cache_info().currsize == 0


def test_non_fundamental_disc_raises_and_is_not_kept():
    # -40028 = 4 * -10007 is the order of conductor 2 in Q(sqrt(-10007)),
    # with 77 classes; the count at a fundamental D would give it 154
    for _ in range(2):
        with pytest.raises(ValidationError, match="discriminant -40028 is not fundamental"):
            classgroup.fundamental_class_number(-40028)
    assert count_h.cache_info().currsize == 0 and count_h.cache_info().hits == 0
    assert len(classgroup.reduced_forms(-40028)) == 77
    assert count_h.cache_info().currsize == 0


def test_failed_build_is_retried(monkeypatch):
    # a count that fails on a miss fails again on the next call, and the
    # discriminant is counted once the failure is gone
    roots = classgroup._two_adic_roots

    def broken(disc, amax):
        raise InternalCheckError("no 2-adic roots")

    monkeypatch.setattr(classgroup, "_two_adic_roots", broken)
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="no 2-adic roots"):
            classgroup.fundamental_class_number(-47)
    assert count_h.cache_info().currsize == 0
    monkeypatch.setattr(classgroup, "_two_adic_roots", roots)
    assert classgroup.fundamental_class_number(-47) == 5
    assert (count_h.cache_info().misses, count_h.cache_info().currsize) == (3, 1)


def _split_prime(rng, disc):
    """A random prime 5 <= p < 2000 that splits in the field of discriminant disc."""
    while True:
        p = rng.randrange(5, 2000)
        if is_prime(p) and disc % p and jacobi(disc, p) == 1:
            return p


def test_prime_class_order_hit_equals_fresh_order():
    rng = random.Random(30)
    discs = [-3, -4, -7, -8] + _fundamental_sample(rng, 5, 10**4, 12)
    discs += _fundamental_sample(rng, 10**4, 10**6, 10) + _fundamental_sample(rng, 10**6, 10**7, 6)
    setups = [descent.heegner_setup(p, d) for d, p in ((d, _split_prime(rng, d)) for d in discs)]
    assert all(s.split_ok for s in setups)
    first = [s.prime_power_order(1) for s in setups]
    assert (prime_order.cache_info().misses, prime_order.cache_info().hits) == (len(setups), 0)
    assert [s.prime_power_order(k) for s in setups for k in (1, 6)] == [
        o // math.gcd(o, k) for o in first for k in (1, 6)
    ]
    assert (prime_order.cache_info().misses, prime_order.cache_info().hits) == (len(setups), 2 * len(setups))
    for s, o in zip(setups, first):
        f = classgroup.prime_form(s.k_disc, s.p)
        assert o == classgroup.class_order(f, s.h_k) == prime_order.__wrapped__(s.k_disc, s.p, s.h_k)
        # the oracle: f^o is principal and f^(o/l) is not, for each prime l | o
        one = classgroup._principal(s.k_disc)
        assert form_pow(f, o) == one, (s.k_disc, s.p)
        assert all(form_pow(f, o // ell) != one for ell, _ in factor(o).factors), (s.k_disc, s.p)


def test_prime_class_order_keys_on_the_class_number():
    # a hand-built set-up gets the order of its own h_K: a multiple of h_K
    # gives the same order under its own key, and an h_K the order does not
    # divide raises on every call and is never kept
    right = descent.heegner_setup(11, -79)
    assert right.prime_power_order(1) == 5
    double = descent.HeegnerSetup(11, -79, 10, 2, True)
    assert double.prime_power_order(1) == 5
    wrong = descent.HeegnerSetup(11, -79, 7, 2, True)
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="does not divide the class number 7"):
            wrong.prime_power_order(1)
    assert (prime_order.cache_info().misses, prime_order.cache_info().currsize) == (4, 2)
    # an inert p has no prime class: it misses the memo, raises in
    # prime_form and is never kept
    with pytest.raises(ValidationError, match="^11 is inert for discriminant -3$"):
        descent.heegner_setup(11, -3).prime_power_order(1)
    assert (prime_order.cache_info().misses, prime_order.cache_info().currsize) == (5, 2)


def test_failed_prime_class_order_is_retried(monkeypatch):
    # a class order that fails on a miss fails again on the next call, and
    # the order is computed once the failure is gone
    order = classgroup.class_order

    def broken(f, h):
        raise InternalCheckError(f"order of {f} does not divide the class number {h}")

    monkeypatch.setattr(classgroup, "class_order", broken)
    setup = descent.heegner_setup(11, -79)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for _ in range(2):
            with pytest.raises(InternalCheckError, match="does not divide the class number 5"):
                setup.prime_power_order(1)
            assert main(["heegner", "--p", "11", "--K", "-79", "--q", "5"]) == 3
    assert prime_order.cache_info().currsize == 0
    monkeypatch.setattr(classgroup, "class_order", order)
    assert setup.prime_power_order(1) == 5
    assert (prime_order.cache_info().misses, prime_order.cache_info().currsize) == (5, 1)


def test_verdicts_at_one_field_share_the_prime_class_order():
    # heegner --p, heegner --p2 and the rational-divisor verdict at
    # (K, p) = (-9983, 101) compute the order once and read it back twice
    p = 101
    with redirect_stdout(io.StringIO()):
        assert main(["heegner", "--p", str(p), "--K", "-9983", "--q", "5"]) == 0
        assert main(["heegner", "--p2", str(p), "--K", "-9983", "--q", "17"]) == 0
    r = etacusp.special_function(p * p)
    div = etacusp.CuspDivisor.from_map(p * p, {p: 1, p * p: -(p - 1)})
    assert descent.verdict_rational_divisor(p * p, r, div, -9983, 17).trace[0].value == "n = 425"
    info = prime_order.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_sigma_hit_equals_cold_build():
    n = 5000
    first = modforms.sigma_table(n)
    assert (sieve.cache_info().misses, sieve.cache_info().hits) == (1, 0)
    assert modforms.sigma_table(n) == first
    assert (sieve.cache_info().misses, sieve.cache_info().hits) == (1, 1)
    sieve.cache_clear()
    assert modforms.sigma_table(n) == first == list(sieve.__wrapped__(n))
    assert sieve.cache_info().misses == 1


def test_sigma_memo_holds_one_tuple():
    assert sieve.cache_info().maxsize == 1
    for n in (100, 200, 100):
        assert type(sieve(n)) is tuple
        assert sieve.cache_info().currsize == 1
    assert sieve.cache_info().misses == 3
    # the public table is a list of its own, never the memo's tuple
    table = modforms.sigma_table(100)
    assert type(table) is list and table == list(sieve(100))


def test_sigma_memo_survives_its_callers():
    # delta_series zeroes the multiples of p in the list it gets, and a
    # caller may change the public table: neither reaches the memo
    n = 3000
    cold_sigma = list(sieve.__wrapped__(n))
    cold_delta = modforms.delta_series(7, n)
    sieve.cache_clear()
    table = modforms.sigma_table(n)
    table[10] += 1
    table[::3] = [0] * len(table[::3])
    modforms.delta_series(5, n)
    assert modforms.sigma_table(n) == cold_sigma
    assert modforms.delta_series(7, n) == cold_delta
    assert sieve.cache_info().misses == 1


def test_eigencheck_sweep_sieves_sigma_once():
    for p in (5, 7, 11, 13, 101, 103, 107, 109):
        assert modforms.eisenstein_eigencheck(p, 2000).ok
    assert (sieve.cache_info().misses, sieve.cache_info().hits) == (1, 7)
    assert (pairs.cache_info().misses, pairs.cache_info().hits) == (1, 7)
    # another precision replaces the one table kept
    assert modforms.eisenstein_eigencheck(5, 1000).ok
    assert (sieve.cache_info().misses, sieve.cache_info().currsize) == (2, 1)
    assert (pairs.cache_info().misses, pairs.cache_info().currsize) == (2, 1)


def test_pair_hit_equals_cold_build():
    n = 5000
    first = modforms.sigma_prime_table(n, 7)
    assert (pairs.cache_info().misses, pairs.cache_info().hits) == (1, 0)
    assert modforms.sigma_prime_table(n, 7) == first
    assert (pairs.cache_info().misses, pairs.cache_info().hits) == (1, 1)
    pairs.cache_clear()
    assert modforms.sigma_prime_table(n, 7) == first
    assert pairs.cache_info().misses == 1
    # the table kept is sigma itself, whichever p asked for it
    assert list(pairs(n)) == list(pairs.__wrapped__(n)) == modforms.sigma_table(n)


def test_pair_memo_holds_one_tuple():
    assert pairs.cache_info().maxsize == 1
    for n in (100, 200, 100):
        assert type(pairs(n)) is tuple
        assert pairs.cache_info().currsize == 1
    assert pairs.cache_info().misses == 3
    # sigma' is a list of its own, never the memo's tuple
    table = modforms.sigma_prime_table(100, 3)
    assert type(table) is list and table[1::3] == list(pairs(100)[1::3])


def test_pair_memo_survives_its_callers():
    # delta_series zeroes the multiples of p in its sigma' list, and a
    # caller may change a sigma' table: neither reaches the memo
    n = 3000
    cold_pairs = pairs.__wrapped__(n)
    cold_delta = modforms.delta_series(7, n)
    pairs.cache_clear()
    table = modforms.sigma_prime_table(n, 3)
    table[10] += 1
    table[::3] = [0] * len(table[::3])
    modforms.delta_series(5, n)
    assert pairs(n) == cold_pairs
    assert modforms.delta_series(7, n) == cold_delta
    assert pairs.cache_info().misses == 1


def _memos():
    """Every object with a cache_info on the eisq modules, named by its home."""
    found = {}
    for info in pkgutil.iter_modules(eisq.__path__):
        module = importlib.import_module(f"eisq.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_kept_sieve_starts_empty():
    # the sieve of form enumeration has no cache_info, so the scan below
    # cannot see it: conftest empties it too, and it holds one sieve at most
    assert classgroup._kept == []
    classgroup.reduced_forms(-9999991)
    classgroup.fundamental_class_number(-999983)
    assert [s.size for s in classgroup._kept] == [2048]


def test_every_memo_starts_empty_and_is_bounded():
    # a memo added later must be emptied by conftest and given a bound, or
    # this fails; the parser is the one exception, built once and argument-free
    memos = _memos()
    known = {"classgroup._fundamental_class_number", "modforms._sigma_table", "modforms._pair_sigma_table"}
    assert {f"eisq.{name}" for name in known} | {"eisq.cli.build_parser"} <= set(memos)
    parser = memos.pop("eisq.cli.build_parser")
    assert not inspect.signature(parser).parameters
    for name, memo in memos.items():
        info = memo.cache_info()
        assert info.currsize == 0, name
        assert info.maxsize is not None, name
