"""The per-process memos: h of a fundamental discriminant, and the last
sigma table built by each of the two sieves.  A hit must equal a fresh
computation, each memo is bounded, an input that raises raises again
(nothing is kept for it), and no caller can change what a memo holds.
`conftest.py` empties all three before every test."""

import importlib
import inspect
import pkgutil
import random

import pytest

import eisq
from eisq import classgroup, etacusp, modforms
from eisq.cli import main
from eisq.errors import InternalCheckError, ResourceCapError, ValidationError

count_h = classgroup._fundamental_class_number
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
            etacusp.cuspidal_class_order(12, etacusp.CuspDivisor(12, ()))
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
