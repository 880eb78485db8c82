"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import functools
import io
import json
import math
from contextlib import redirect_stdout

from eisq import classgroup, descent, etacusp, modforms, quadfield, selmer
from eisq.cli import main as cli_main
from eisq.etacusp import CuspDivisor
from test_quadfield import residue_symbol
from test_selmer import member_local, torsion_image


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")

        return run

    return wrap


@criterion(1, "class numbers h(-p) for p in {7,23,31,47,71} by reduced-form enumeration")
def test_criterion_01_class_numbers():
    expected = {7: 1, 23: 3, 31: 3, 47: 5, 71: 7}
    for p, h in expected.items():
        assert classgroup.fundamental_class_number(classgroup.field_disc(p)) == h, p
        # oracle: the enumeration itself, independent of composition
        assert len(classgroup.reduced_forms(-p)) == h


@criterion(2, "Selmer oracle equivalence over all admissible |d| <= 120, p in {7,23,31}")
def test_criterion_02_oracle_equivalence():
    checked = 0
    for p in (7, 23, 31):
        for d in selmer.admissible_twists_between(p, -120, 120):
            td = selmer.build_twist(p, d)
            graph = selmer.selmer_rank_graph(td)
            oracle_dim = selmer.selmer_group_bruteforce(td)
            assert oracle_dim == 2 + 2 * graph.t, (p, d, oracle_dim, graph.t)
            # survivor sets are groups containing the torsion image:
            # verified inside the oracle; re-assert the membership here
            for cand in torsion_image(td):
                assert member_local(td, cand), (p, d)
            checked += 1
    assert checked >= 100


@criterion(3, "p=7, d=-11: rank 3 (dim 4) and the named generator pair is a member")
def test_criterion_03_single_split_twist():
    td = selmer.build_twist(7, -11)
    graph = selmer.selmer_rank_graph(td)
    assert graph.rank == 3 and selmer.selmer_group_bruteforce(td) == 4
    f = td.split3[0][1]
    sym = residue_symbol(td.ctx, f, quadfield.places_above(td.ctx, 7)[0])
    if sym == 1:
        pair = ((0b010, 0), (0, 0b100))
    else:
        pair = ((0b100, 0), (0, 0b010))
    assert all(member_local(td, c) for c in pair)


@criterion(4, "minimality: p=7, d in {5,65} give dim 2; d=-3 gives rank 3 above bound 2")
def test_criterion_04_minimality():
    # twists by inert primes only: rank 1 exactly when every Q = 1 (mod 4),
    # and never below the bound 1 + #(Q = 3 mod 4)
    for d, rank, bound in ((5, 1, 1), (65, 1, 1), (-3, 3, 2)):
        td = selmer.build_twist(7, d)
        assert not (td.split3 or td.split1)
        assert 1 + sum(q % 4 == 3 for q in td.inert) == bound
        assert selmer.selmer_rank_graph(td).rank == rank
        assert selmer.selmer_group_bruteforce(td) == rank + 1


@criterion(5, "local square laws at all inert Q < 200 for p in {7,23,31}")
def test_criterion_05_inert_local_squares():
    from eisq.arith import is_prime

    for p in (7, 23, 31):
        ctx = quadfield.FieldCtx(p)
        inert = [
            q
            for q in range(3, 200, 2)
            if is_prime(q) and q != p and quadfield.classify_prime(ctx, q) == "inert"
        ]
        for q in inert:
            v = quadfield.places_above(ctx, q)[0]
            expected = q % 4 == 3
            # pi = sqrt(-p) = (-1, 2) as a + b*w, and -pi = (1, -2)
            assert quadfield.is_local_square(ctx, [(-1, 2)], v) == expected
            assert quadfield.is_local_square(ctx, [(1, -2)], v) == expected
            assert quadfield.is_local_square(ctx, [(-1, 0)], v)
        for q1 in inert:
            q1s = q1 if q1 % 4 == 1 else -q1
            for q2 in inert:
                if q1 != q2:
                    assert quadfield.is_local_square(
                        ctx, [(q1s, 0)], quadfield.places_above(ctx, q2)[0]
                    )


@criterion(6, "symbol reciprocity for all split q < 500, both residue classes, p in {7,23,31}")
def test_criterion_06_reciprocity():
    from eisq.arith import is_prime

    for p, h in ((7, 1), (23, 3), (31, 3)):
        ctx = quadfield.FieldCtx(p)
        pi = (-1, 2)  # sqrt(-p) = 2w - 1
        pi_place = quadfield.places_above(ctx, p)[0]
        seen = {1: 0, 3: 0}
        for q in range(3, 500, 2):
            if not is_prime(q) or q == p:
                continue
            if quadfield.classify_prime(ctx, q) != "split":
                continue
            f = quadfield.split_generator(ctx, q, h)
            a, b = f
            fbar = (a + b, -b)
            # the place above q that f lies in, then the one of fbar
            v, vbar = sorted(quadfield.places_above(ctx, q), key=lambda u: (a + b * u.omega_residue) % q)
            s1 = residue_symbol(ctx, f, pi_place) * residue_symbol(ctx, pi, v)
            s2 = residue_symbol(ctx, fbar, pi_place) * residue_symbol(ctx, pi, vbar)
            s3 = residue_symbol(ctx, f, pi_place) == residue_symbol(ctx, fbar, v)
            assert s1 == 1 and s3, (p, q)
            assert s2 == (-1 if q % 4 == 3 else 1), (p, q)
            seen[q % 4] += 1
        assert seen[1] >= 15 and seen[3] >= 15


@criterion(7, "Eisenstein eigenform check at precision 200 for p in {5,7,11,13}, ell <= 13")
def test_criterion_07_eigencheck():
    for p in (5, 7, 11, 13):
        report = modforms.eisenstein_eigencheck(p, 200)
        assert report.ok, report
        statuses = {r.ell: r.status for r in report.results}
        for ell in (2, 3, 5, 7, 11, 13):
            assert statuses[ell] == "pass", (p, ell, statuses)


@criterion(8, "cuspidal class orders by the lattice method at levels p and p^2")
def test_criterion_08_cuspidal_orders():
    for p in (11, 17, 19, 37, 67):
        want = (p - 1) // math.gcd(12, p - 1)
        div = CuspDivisor.from_map(p, {1: 1, p: -1})
        assert etacusp.cuspidal_class_order(p, div) == want, p
    for p in (5, 7, 11, 13):
        n = p * p
        want = (p * p - 1) // 24
        c1 = CuspDivisor.from_map(n, {1: 1, n: -1})
        cp = CuspDivisor.from_map(n, {p: 1, n: -(p - 1)})
        assert etacusp.cuspidal_class_order(n, c1) == want, p
        assert etacusp.cuspidal_class_order(n, cp) == want, p


@criterion(9, "square-level eta-product: rationality and divisor n(P_p - (p-1)inf), p in {7,11,13}")
def test_criterion_09_special_function():
    for p in (7, 11, 13):
        r = {1: -1, p: p + 1, p * p: -p}
        assert etacusp.ligozat_check(p * p, r).ok
        n = (p * p - 1) // 24
        expected = CuspDivisor.from_map(p * p, {p: n, p * p: -n * (p - 1)})
        assert etacusp.eta_divisor(p * p, r) == expected, p
        assert etacusp.special_function(p * p) == r


@criterion(10, "Heegner verdicts: prime level, level p^2, Neumann-Setzer corollary")
def test_criterion_10_heegner_verdicts():
    v1 = descent.verdict_prime_level_odd_q(11, -7, 5)
    assert v1.conclusion == descent.NONTORSION
    v2 = descent.verdict_p2_level(13, -3, 7)
    assert v2.conclusion == descent.NONTORSION
    ns = descent.neumann_setzer(73)
    assert ns.u == 3 and ns.two_eisenstein_simple
    v3 = descent.verdict_ns_curve(73, -19)
    assert v3.conclusion == descent.NONTORSION


@criterion(11, "determinism: repeated runs produce byte-identical JSON")
def test_criterion_11_determinism():
    commands = (
        ("classnum", "--p", "71", "--format", "json"),
        ("selmer", "--p", "7", "--d-range", "-120..120", "--oracle", "--format", "json"),
        ("selmer", "--p", "23", "--d", "-39", "--oracle", "--format", "json"),
        ("eta", "--N", "169", "--special", "--format", "json"),
        ("heegner", "--p2", "13", "--K", "-3", "--q", "7", "--format", "json"),
        ("eigencheck", "--p", "13", "--prec", "200", "--format", "json"),
    )
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(list(argv))
            assert code == 0, argv
            outputs.append(buf.getvalue().encode())
        assert outputs[0] == outputs[1], argv
        json.loads(outputs[0])  # well-formed
