"""The per-process memo of h of a fundamental discriminant.  A hit must
equal a fresh computation, the memo is bounded, and an input that raises
raises again (nothing is kept for it).  `conftest.py` empties it before
every test."""

import random

import pytest

from eisq import classgroup, etacusp
from eisq.cli import main
from eisq.errors import InternalCheckError, ResourceCapError, ValidationError

count_h = classgroup._fundamental_class_number


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
