import importlib
import math
import pkgutil
import random

import pytest

import eisq
from eisq import arith, quadfield, selmer
from eisq.arith import is_prime
from eisq.errors import InternalCheckError, ResourceCapError, ValidationError
from eisq.quadfield import _local_data, places_above
from eisq.selmer import (
    SelmerGraph,
    admissible_twists_between,
    build_graph,
    build_twist,
    count_even_partitions,
    selmer_group_bruteforce,
    selmer_rank_graph,
)
from test_cli import MINIMALITY_FAULTS, _shift_t, run_cli_err
from test_quadfield import mul, old_split_generator, residue_symbol


def member_local(td, cand):
    """The local membership test of a candidate (alpha_bits, beta_bits),
    exponent bit vectors over the two shapes (bit i = generator i): at
    every place over p*d some 2-torsion image pair (x, y), x in {1, -pi d}
    and y in {1, pi d}, makes both coordinates local squares, so each
    coordinate is tested on its own by the oracle's coordinate test."""
    alpha_bits, beta_bits = cand
    local = selmer._oracle_table(td)
    return all(
        selmer._coordinate_ok_at(local, "alpha", alpha_bits, idx)
        and selmer._coordinate_ok_at(local, "beta", beta_bits, idx)
        for idx in range(len(td.places))
    )


def torsion_image(td):
    """(1,1), (-pi d,1), (1,pi d), (-pi d,pi d): modulo squares -pi*d and
    pi*d are the full products of the generators of each shape."""
    ones = (1 << td.width) - 1
    return [(a, b) for a in (0, ones) for b in (0, ones)]


def second_shape(td):
    """The second shape's generators from their definition,
    {pi, -f_i, fbar_i, g_j, gbar_j, Q*_k}, built from the twist's primes
    and not from the mask `td.negated`."""
    return (
        [(-1, 2)]
        + [(-a, -b) for _, (a, b) in td.split3]
        + [(a + b, -b) for _, (a, b) in td.split3]
        + [g for _, g in td.split1]
        + [(a + b, -b) for _, (a, b) in td.split1]
        + [(q if q % 4 == 1 else -q, 0) for q in td.inert]
    )


def test_build_twist_examples():
    td = build_twist(7, -11)
    assert td.split3 == [(11, (1, 2))]
    assert td.split1 == [] and td.inert == []
    # place j is the place of generator j, and the table is width x width
    assert [v.label() for v in td.places] == ["pi", "split(11)", "split(11)'"]
    assert td.table == [[(1, -1), (0, 1), (0, -1)], [(0, -1), (1, 1), (0, -1)], [(0, 1), (0, 1), (1, -1)]]
    # the second shape negates -pi, f(11) and -fbar(11)
    assert td.negated == 0b111 and second_shape(td) == [(-1, 2), (-1, -2), (3, -2)]
    td5 = build_twist(7, 5)
    assert td5.inert == [5] and td5.alpha_gens[-1] == ("5", (5, 0)) and second_shape(td5)[-1] == (5, 0)
    assert td5.negated == 0b01
    assert [v.label() for v in td5.places] == ["pi", "inert(5)"]
    td3 = build_twist(7, -3)
    assert td3.inert == [3] and td3.alpha_gens[-1] == ("-3", (-3, 0)) and second_shape(td3)[-1] == (-3, 0)
    assert len(td3.places) == len(td3.table) == 2


def test_build_twist_validation():
    with pytest.raises(ValidationError, match="7 mod 8"):
        build_twist(11, 5)  # 11 = 3 mod 8: graph machinery needs 2 split
    with pytest.raises(ValidationError):
        build_twist(7, 3)  # 3 mod 4
    with pytest.raises(ValidationError):
        build_twist(7, 21)  # 21 = 1 mod 4 but 21 = 3*7 shares 7 with p
    with pytest.raises(ValidationError):
        build_twist(7, 45)  # not squarefree
    with pytest.raises(ValidationError):
        build_twist(8, 5)


def test_member_local_examples():
    td3 = build_twist(7, -3)
    assert member_local(td3, (0b10, 0))  # alpha = -3
    td5 = build_twist(7, 5)
    assert not member_local(td5, (0b10, 0))  # alpha = 5
    for td in (td3, td5, build_twist(7, -11)):
        for cand in torsion_image(td):
            assert member_local(td, cand)


def _labels(td):
    return tuple(label for label, _ in td.alpha_gens)


def test_graph_examples():
    td5, td3, td11 = build_twist(7, 5), build_twist(7, -3), build_twist(7, -11)
    assert _labels(td5) == ("-pi", "5")
    assert build_graph(td5).arrows == ((False, True), (True, False))
    assert _labels(td3) == ("-pi", "-3")
    assert not any(map(any, build_graph(td3).arrows))
    assert _labels(td11) == ("-pi", "f(11)", "-fbar(11)")
    assert build_graph(td11).arrows == (
        (False, True, False),
        (False, False, False),
        (True, True, False),
    )


def test_count_even_partitions_examples():
    g5 = build_graph(build_twist(7, 5))
    assert count_even_partitions(g5) == (0, 0)
    g3 = build_graph(build_twist(7, -3))
    assert count_even_partitions(g3) == (1, 1)
    single = SelmerGraph(((False,),))
    assert count_even_partitions(single) == (0, 0)
    # the cap is checked before the 2^25-subset walk would start
    n = selmer.PARTITION_VERTEX_CAP + 1
    wide = SelmerGraph(((False,) * n,) * n)
    with pytest.raises(ResourceCapError, match=f"{n} vertices exceed the partition cap"):
        count_even_partitions(wide)


def test_rank_examples():
    assert selmer_rank_graph(build_twist(7, -11)).rank == 3
    assert selmer_rank_graph(build_twist(7, 5)).rank == 1
    r3 = selmer_rank_graph(build_twist(7, -3))
    assert r3.rank == 3 and r3.dim_f2 == 4


def test_bruteforce_examples():
    assert selmer_group_bruteforce(build_twist(7, 5)) == 2
    assert selmer_group_bruteforce(build_twist(7, -11)) == 4
    assert selmer_group_bruteforce(build_twist(7, -3)) == 4
    # a twist by six split primes has 13 generators: 4^13 pairs exceed the cap
    td = build_twist(7, _split_only_twists(7, (6,), 1, 20161226)[0])
    assert td.width == 13 and 4**13 > selmer.ORACLE_PAIR_CAP
    with pytest.raises(ResourceCapError, match="exceed cap"):
        selmer_group_bruteforce(td)


def test_bruteforce_basis_spans_survivors():
    td = build_twist(7, -11)
    alpha, beta = selmer._survivors(td)
    basis = [(a, 0) for a in selmer._f2_basis(alpha)] + [(0, b) for b in selmer._f2_basis(beta)]
    span = {(0, 0)}
    for x, y in basis:
        span |= {(a ^ x, b ^ y) for a, b in span}
    assert len(span) == 1 << selmer_group_bruteforce(td) == len(alpha) * len(beta)
    for cand in span:
        assert member_local(td, cand)


def test_oracle_equivalence_sweep_small():
    # the full acceptance sweep lives in test_acceptance; spot-check here
    for p in (7, 23):
        for d in admissible_twists_between(p, -60, 60):
            td = build_twist(p, d)
            graph = selmer_rank_graph(td)
            assert selmer_group_bruteforce(td) == graph.dim_f2 == 2 + 2 * graph.t, (p, d)


def test_dimension_vs_raw_partition_count():
    # three pairwise-unlinked vertices: 3 nontrivial even partitions but
    # partition dimension 2; the oracle pins the dimension reading
    td = build_twist(7, 57)
    graph = selmer_rank_graph(td)
    assert graph.nontrivial_even_partitions == 3
    assert graph.t == 2
    assert selmer_group_bruteforce(td) == 6 == graph.dim_f2


def _second_shape_by_local_data(td):
    # the table of the second shape, one _local_data call per (generator, place)
    return [[_local_data(td.ctx, g, v) for g in second_shape(td)] for v in td.places]


def _conjugation_swap(td):
    # the slot each generator goes to under -pi -> pi, f -> fbar, -fbar -> -f,
    # g -> gbar, gbar -> g, Q* -> Q*
    n3, n1 = len(td.split3), len(td.split1)
    base, base2 = 1 + 2 * n3, 1 + 2 * n3 + 2 * n1
    return (
        [0]
        + list(range(1 + n3, base))
        + list(range(1, 1 + n3))
        + list(range(base + n1, base2))
        + list(range(base, base + n1))
        + list(range(base2, td.width))
    )


def test_conjugation_isomorphism_and_symmetry(monkeypatch):
    for p, d in ((7, -11), (7, 65), (23, -39), (31, 57)):
        td = build_twist(p, d)
        # the coordinate swap carries the symbol of each first-shape
        # generator at the place of another onto the second shape's, so it
        # is an isomorphism of the graph onto the second shape's graph
        first, second, perm = td.table, _second_shape_by_local_data(td), _conjugation_swap(td)
        n = td.width
        assert all(first[j][i][1] == second[perm[j]][perm[i]][1] for i in range(n) for j in range(n) if i != j)
        conjugate = SelmerGraph(
            tuple(tuple(i != j and second[j][i][1] == -1 for j in range(n)) for i in range(n))
        )
        assert count_even_partitions(build_graph(td))[0] == count_even_partitions(conjugate)[0]
        # the twist on the other normalized generator of each split prime
        with monkeypatch.context() as m:
            m.setattr(quadfield, "split_generator", lambda ctx, q, h: old_split_generator(ctx, q, h, True))
            tdc = build_twist(p, d)
        assert (tdc.alpha_gens != td.alpha_gens) == bool(td.split3 or td.split1)
        assert selmer_rank_graph(tdc).t == selmer_rank_graph(td).t
        assert selmer_group_bruteforce(tdc) == selmer_group_bruteforce(td)


def _count_even_partitions_by_bin(graph: SelmerGraph, vertex_cap: int = selmer.PARTITION_VERTEX_CAP):
    # the walk count_even_partitions did before it counted with int.bit_count,
    # kept verbatim as an oracle
    n = graph.size
    if n > vertex_cap:
        raise ResourceCapError(f"{n} vertices exceed the partition cap {vertex_cap}")
    in_masks = []
    for j in range(n):
        mask = 0
        for i in range(n):
            if graph.arrows[i][j]:
                mask |= 1 << i
        in_masks.append(mask)
    full = (1 << n) - 1
    even_sets = []
    for s in range(1 << n):
        ok = True
        for y in range(n):
            opposite = (full ^ s) if (s >> y) & 1 else s
            if bin(in_masks[y] & opposite).count("1") % 2:
                ok = False
                break
        if ok:
            even_sets.append(s)
    count = len(even_sets)
    if count & (count - 1):
        raise InternalCheckError("even subsets do not form a subspace")
    sset = set(even_sets)
    if 0 not in sset or full not in sset:
        raise InternalCheckError("trivial partition is not even")
    t = count.bit_length() - 2  # log2(count) - 1 partitions dimension
    nontrivial = count // 2 - 1
    return t, nontrivial


def _laplacian_corank(arrows):
    # dim_F2 of the kernel of D_in + A^T, the reference for the walk and for
    # the first shape's corank: row y is the in-arrow mask of y, plus bit y
    # when y has odd in-degree, and the kernel is the even vertex sets
    n = len(arrows)
    rows = []
    for y in range(n):
        row = sum(1 << x for x in range(n) if arrows[x][y])
        rows.append(row | (row.bit_count() & 1) << y)
    return n - len(selmer._f2_basis(rows))


def test_laplacian_corank_against_even_partitions_random():
    rng = random.Random(20161226)
    for _ in range(3000):
        n = rng.randint(1, 12)
        density = rng.random()
        arrows = tuple(
            tuple(i != j and rng.random() < density for j in range(n)) for i in range(n)
        )
        graph = SelmerGraph(arrows)
        t, nontrivial = count_even_partitions(graph)
        assert _count_even_partitions_by_bin(graph) == (t, nontrivial), arrows
        assert _laplacian_corank(arrows) - 1 == t, arrows


def _split_only_twists(p, counts, per_count, seed):
    # products of k split primes below 400, each with the sign that makes it 1 mod 4
    from eisq.quadfield import FieldCtx, classify_prime

    ctx = FieldCtx(p)
    split = [q for q in range(3, 400, 2) if is_prime(q) and q != p and classify_prime(ctx, q) == "split"]
    rng = random.Random(f"{seed}:{p}")
    return [
        math.prod(q if q % 4 == 1 else -q for q in rng.sample(split, k))
        for k in counts
        for _ in range(per_count)
    ]


def test_corank_walk_and_kernel_on_twists():
    for p in (7, 23, 31, 47, 71):
        # every |d| <= 3000, then twists by 6, 7 and 8 split primes: 13, 15
        # and 17 vertices, the sizes of the selmer-wide benchmark
        wide = _split_only_twists(p, (6, 7, 8), 2, 20161226)
        for d in list(admissible_twists_between(p, -3000, 3000)) + wide:
            td = build_twist(p, d)
            graph = build_graph(td)
            first, second = selmer._local_coranks(td)
            assert first == second == _laplacian_corank(graph.arrows), (p, d)
            assert count_even_partitions(graph)[0] == first - 1, (p, d)
            derived = [local["beta"][0] for local in selmer._oracle_table(td)]
            assert derived == _second_shape_by_local_data(td), (p, d)
        assert [build_twist(p, d).width for d in wide] == [13, 13, 15, 15, 17, 17]


def _product(ctx, gens):
    # the product of int pairs a + b*w in Z[w]
    x = (1, 0)
    for g in gens:
        x = mul(ctx, x, g)
    return x


def _reciprocity_faults(td, table):
    """The pairs (i, j), i < j, of first-shape generators whose Hilbert
    symbols, by `table`, multiply to -1 over the places that can contribute.

    Each generator is a unit at every finite place but its own and the two
    places above 2, and K is complex, so by Hilbert reciprocity (Neukirch,
    Algebraic Number Theory, ch. V-VI) the product over place i, place j
    and the places above 2 is 1.  Place i gives
    `table[i][j].sym ** table[i][i].val`, place j the same with i and j
    swapped.  The places above 2 are Q_2, as 2 splits for p = 7 (mod 8):
    w goes to (1 + s)/2 or (1 - s)/2 with s^2 = -p, and units x, y give
    (-1)^(eps(x) eps(y)) with eps(x) = (x - 1)/2 mod 2 (Serre, A Course in
    Arithmetic, III.1.2), so residues mod 4 suffice."""
    s = arith.sqrt_mod_prime_power(-td.ctx.p, 2, 5)[0]
    images = ((1 + s) // 2, (1 - s) // 2)
    eps = []
    for _, (a, b) in td.alpha_gens:
        xs = [(a + b * w) % 4 for w in images]
        assert all(x % 2 for x in xs), (td.ctx.p, td.d, a, b)
        eps.append([(x - 1) // 2 for x in xs])
    faults = []
    for i in range(td.width):
        for j in range(i + 1, td.width):
            sign = table[i][j][1] ** table[i][i][0] * table[j][i][1] ** table[j][j][0]
            if (eps[i][0] * eps[j][0] + eps[i][1] * eps[j][1]) % 2:
                sign = -sign
            if sign != 1:
                faults.append((i, j))
    return faults


def test_second_shape_mask_and_reciprocity_on_twists():
    # every admissible |d| <= 3000 at five p, 5789 twists.  The second
    # shape, built from its definition, is the first negated at the mask
    # `negated`, and so prod(second) * pi * d = prod(first) * (-pi) * d in
    # Z[w]: a mask of the wrong width fails by a sign.  The table obeys
    # Hilbert reciprocity off its diagonal
    checked = 0
    for p in (7, 23, 31, 47, 71):
        for d in admissible_twists_between(p, -3000, 3000):
            td = build_twist(p, d)
            first, second = [g for _, g in td.alpha_gens], second_shape(td)
            assert second == [(-a, -b) if td.negated >> i & 1 else (a, b) for i, (a, b) in enumerate(first)], (p, d)
            assert _product(td.ctx, second + [(-1, 2), (d, 0)]) == _product(td.ctx, first + [(1, -2), (d, 0)]), (p, d)
            assert _reciprocity_faults(td, td.table) == [], (p, d)
            checked += 1
    assert checked == 5789


def test_reciprocity_catches_every_off_diagonal_flip():
    # a flipped symbol off the diagonal breaks the relation of its pair,
    # since every diagonal valuation is odd: 154 flips at six twists.  The
    # 30 flips on the diagonal leave every relation whole
    off, diagonal = 0, 0
    for p, d in ((7, -11), (23, -39), (71, -1155), (7, 5), (7, 271469), (31, 57)):
        td = build_twist(p, d)
        for j, row in enumerate(td.table):
            for i, (val, sym) in enumerate(row):
                table = [list(r) for r in td.table]
                table[j][i] = (val, -sym)
                if i == j:
                    assert _reciprocity_faults(td, table) == [], (p, d, i)
                    diagonal += 1
                else:
                    assert _reciprocity_faults(td, table) == [(min(i, j), max(i, j))], (p, d, i, j)
                    off += 1
    assert (off, diagonal) == (154, 30)


def test_corrupted_table_exits_3(monkeypatch):
    real = selmer.build_twist

    def flipped(p, d):
        td = real(p, d)
        val, sym = td.table[0][1]
        td.table[0][1] = (val, -sym)  # f(11) at the place of -pi
        return td

    monkeypatch.setattr(selmer, "build_twist", flipped)
    code, _, err = run_cli_err("selmer", "--p", "7", "--d", "-11")
    assert code == 3 and "local conditions give dim" in err, err

    def nonunit(p, d):
        td = real(p, d)
        td.table[2][0] = (1, td.table[2][0][1])
        return td

    monkeypatch.setattr(selmer, "build_twist", nonunit)
    code, _, err = run_cli_err("selmer", "--p", "7", "--d", "-11")
    assert code == 3 and "not a unit" in err, err


def test_kernel_off_by_one_exits_3(monkeypatch):
    real = selmer._local_coranks

    def second_off(td):
        first, second = real(td)
        return first, second + 1

    monkeypatch.setattr(selmer, "_local_coranks", second_off)
    for d in ("-11", "5", "-3"):
        code, _, err = run_cli_err("selmer", "--p", "7", "--d", d)
        assert code == 3 and "local conditions give dim" in err, (d, err)


def test_even_diagonal_valuation_exits_3(monkeypatch):
    # generator j at its own place j with an even valuation: its local-condition
    # row is no longer the Laplacian's, and the graph refuses the table
    real = selmer.build_twist
    for p, d, j in ((7, -11, 0), (7, -11, 1), (7, 5, 1), (23, -39, 2), (71, -1155, 2)):

        def even(p, d, j=j):
            td = real(p, d)
            td.table[j][j] = (2, td.table[j][j][1])
            return td

        monkeypatch.setattr(selmer, "build_twist", even)
        code, _, err = run_cli_err("selmer", "--p", str(p), "--d", str(d))
        label = real(p, d).alpha_gens[j][0]
        assert code == 3 and f"{label} has even valuation at its own place" in err, (p, d, j, err)


def test_rank_runs_one_partition_pass(monkeypatch):
    calls = []
    real = selmer.count_even_partitions

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(selmer, "count_even_partitions", counting)
    for p, d in ((7, -11), (7, 57), (23, -39), (71, -1155)):
        calls.clear()
        res = selmer_rank_graph(build_twist(p, d))
        assert calls == [res.graph], (p, d)


def test_corank_disagreement_is_an_internal_error(monkeypatch):
    real = selmer._local_coranks
    monkeypatch.setattr(selmer, "_local_coranks", lambda td: tuple(c + 1 for c in real(td)))
    with pytest.raises(InternalCheckError, match="partition counts disagree"):
        selmer_rank_graph(build_twist(7, -11))


def test_rank_builds_each_graph_once(monkeypatch):
    # build_twist fills the table with one _local_data call per (generator,
    # place); the rank builds one graph from it and adds one call per place,
    # the class of -1 that derives the second shape
    built, calls = [], []
    real_graph, real_data = selmer.build_graph, quadfield._local_data
    monkeypatch.setattr(selmer, "build_graph", lambda td: built.append(td) or real_graph(td))
    monkeypatch.setattr(quadfield, "_local_data", lambda *args: calls.append(args) or real_data(*args))
    for p, d in ((7, -11), (23, -39), (71, -1155)):
        calls.clear()
        td = build_twist(p, d)
        assert len(calls) == td.width**2 == len(td.places) ** 2
        built.clear()
        calls.clear()
        res = selmer_rank_graph(td)
        assert built == [td] and len(calls) == td.width
        assert res.graph == real_graph(td)


def test_thmm_examples():
    # twists by inert primes only: d = 5 and 65 (every Q = 1 mod 4) collapse
    # to the 2-torsion, and d = -3 has rank 3, at least 1 + #(Q = 3 mod 4) = 2
    assert [selmer_rank_graph(build_twist(7, d)).rank for d in (5, -3, 65)] == [1, 3, 1]
    assert selmer_group_bruteforce(build_twist(7, 65)) == 2
    # the criterion itself: rank 1 exactly when minimal, and never below the bound
    selmer._check_minimality(build_twist(7, -3), 5)
    for d, rank, bound in ((5, 3, 1), (-3, 1, 2)):
        with pytest.raises(InternalCheckError, match=f"failed for d={d}: rank {rank}, bound {bound}"):
            selmer._check_minimality(build_twist(7, d), rank)


@pytest.mark.parametrize("d, shift", MINIMALITY_FAULTS)
def test_wrong_minimality_rank_raises(monkeypatch, d, shift):
    # the fault that the CLI exits 3 on raises in a library call too
    td = build_twist(7, d)
    _shift_t(monkeypatch, shift)
    with pytest.raises(InternalCheckError, match=f"minimality cross-check failed for d={d}"):
        selmer_rank_graph(td)


def _split_q3_twists(p, bound):
    from eisq.quadfield import FieldCtx, classify_prime

    ctx = FieldCtx(p)
    out = []
    for q in range(3, bound, 4):
        if is_prime(q) and q != p and classify_prime(ctx, q) == "split":
            out.append(q)
    return out


def test_single_split_q3_generator_pairs():
    # rank 3 for d = -q with split q = 3 (mod 4); the named generator pair
    # passes the membership test, by the sign of the symbol of f at pi
    count = 0
    for p in (7, 23, 31):
        for q in _split_q3_twists(p, 400):
            td = build_twist(p, -q)
            assert selmer_rank_graph(td).rank == 3
            ctx = td.ctx
            f = td.split3[0][1]
            sym = residue_symbol(ctx, f, places_above(ctx, p)[0])
            if sym == 1:
                pair = ((0b010, 0), (0, 0b100))
            else:
                pair = ((0b100, 0), (0, 0b010))
            assert all(member_local(td, c) for c in pair), (p, q, sym)
            count += 1
    assert count >= 50


def test_all_split_q1_complete_graph_is_minimal():
    # twists by split primes q = 1 (mod 4) whose generators pairwise carry
    # symbol -1 give a complete graph on an odd vertex count, hence rank 1
    found = 0
    for p in (7, 23, 31):
        ctx_twists = [
            d
            for d in admissible_twists_between(p, -200, 200)
            if d > 0
        ]
        for d in ctx_twists:
            try:
                td = build_twist(p, d)
            except ValidationError:
                continue
            if td.inert or td.split3 or not td.split1:
                continue
            graph = build_graph(td)
            n = graph.size
            complete = all(
                graph.arrows[i][j] or graph.arrows[j][i] or i == j
                for i in range(n)
                for j in range(n)
            )
            pi_cond = all(graph.arrows[i][0] for i in range(1, n))
            if complete and pi_cond:
                res = selmer_rank_graph(td)
                assert res.rank == 1, (p, d)
                assert selmer_group_bruteforce(td) == 2
                found += 1
    assert found >= 2


def test_admissible_twists():
    ds = list(admissible_twists_between(7, -30, 30))
    assert 1 in ds and 5 in ds and -3 in ds and -11 in ds
    assert all(d % 4 == 1 and d % 7 and d % 2 for d in ds)
    assert 21 not in ds and -7 not in ds


def _admissible_by_filter(p, lo, hi):
    # every |d| up to the larger bound, then the range: the walk the sweep used to do
    bound = max(abs(lo), abs(hi))
    ds = [
        d
        for absd in range(1, bound + 1, 2)
        for d in (absd, -absd)
        if d % 4 == 1 and d % p and all(d % (q * q) for q in range(3, math.isqrt(absd) + 1, 2))
    ]
    return [d for d in sorted(ds, key=abs) if lo <= d <= hi]


def test_admissible_twists_between_against_filter():
    for p in (7, 23):
        for lo, hi in ((5000, 5200), (-5200, -5000), (-5200, 5200), (-37, 41), (1, 1), (-3, -3), (0, 0), (-21, -2)):
            expected = _admissible_by_filter(p, lo, hi)
            assert list(selmer.admissible_twists_between(p, lo, hi)) == expected, (p, lo, hi)
    assert list(admissible_twists_between(7, -400, 400)) == _admissible_by_filter(7, -400, 400)


def test_parity_of_t_follows_the_sign_of_d():
    # t, with dim_F2 = 2 + 2t, is odd exactly when d < 0.  At p = 7, A(7)
    # is 49a1 and this is the 2-parity theorem: the twist's root number is
    # chi_d(-49) = sign d, since w(49a1) = +1 (Monsky, Math. Z. 221, 1996;
    # T. and V. Dokchitser, Ann. of Math. 172, 2010).  For h(-p) > 1 it is
    # this test's hypothesis, observed on every twist below (702 in all)
    checked = 0
    for p in (7, 23, 31, 47, 71, 1031):
        for d in admissible_twists_between(p, -300, 300):
            t = selmer_rank_graph(build_twist(p, d)).t
            assert t % 2 == (d < 0), (p, d, t)
            checked += 1
    assert checked == 702


def test_oracle_equivalence_large_class_numbers():
    # h = 5 and h = 7 fields: split generators have norms up to q^7, past
    # the exhaustive norm-equation threshold, exercising the reduction path
    for p in (47, 71):
        for d in admissible_twists_between(p, -100, 100):
            td = build_twist(p, d)
            graph = selmer_rank_graph(td)
            assert selmer_group_bruteforce(td) == graph.dim_f2, (p, d)


def test_two_split_primes_instance():
    # d = 11 * 23 = 253: two split q = 3 (mod 4) factors for p = 7
    td = build_twist(7, 253)
    assert len(td.split3) == 2 and td.width == 5
    graph = selmer_rank_graph(td)
    assert selmer_group_bruteforce(td) == graph.dim_f2


def test_twist_factors_d_only(monkeypatch):
    # every module's binding of factor counts its calls; the generator of
    # each split q and its place come from q itself, so d is factored once
    calls = []
    real = arith.factor

    def counting(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    patched = []
    for info in pkgutil.iter_modules(eisq.__path__):
        module = importlib.import_module(f"eisq.{info.name}")
        if getattr(module, "factor", None) is real:
            monkeypatch.setattr(module, "factor", counting)
            patched.append(info.name)
    assert {"arith", "selmer"} <= set(patched)
    for p, d in ((7, -11), (23, -39), (71, -1155), (23, -100000000003), (47, -1000000007), (7, -2943050537207)):
        calls.clear()
        selmer_rank_graph(build_twist(p, d))
        assert calls == [d], (p, d)


def test_generator_places():
    # generator i of either shape lies at place i: pi at the ramified place,
    # f and fbar at the two places above their q, Q* at its inert place
    for p, d in ((7, -11), (23, -39), (71, -1155), (47, 21), (7, 5 * 29 * 53)):
        td = build_twist(p, d)
        assert len(td.places) == td.width
        for (_, x), y, v in zip(td.alpha_gens, second_shape(td), td.places):
            a, b = x
            if b == 0:
                assert x == y and v.kind == "inert" and v.q == abs(a)
                continue
            assert x in (y, (-y[0], -y[1])) and quadfield.norm(td.ctx, x) % v.q == 0
            if v.kind == "ramified":
                assert quadfield.norm(td.ctx, x) == p
            else:
                assert (a + b * v.omega_residue) % v.q == 0
                assert [u for u in places_above(td.ctx, v.q) if (a + b * u.omega_residue) % v.q == 0] == [v]
        # so the table is a unit off its diagonal and of odd valuation on it
        assert all((val % 2 == 1) == (i == j) for j, row in enumerate(td.table) for i, (val, _) in enumerate(row))


def test_generators_are_int_pairs():
    # every generator, of each kind of prime (split3, split1, inert), and
    # every `split_generator` result the twist keeps in split3 and split1,
    # is an exact tuple of two ints (a, b) for a + b*w; the second shape is
    # the int mask of the generators it negates
    def is_pair(g):
        return type(g) is tuple and len(g) == 2 and all(type(x) is int for x in g)

    kinds = set()
    for p, d in ((7, -11), (7, 5 * 29 * 53), (47, 21), (71, -1155)):
        td = build_twist(p, d)
        kinds.update(kind for kind, part in (("split3", td.split3), ("split1", td.split1), ("inert", td.inert)) if part)
        for _, g in td.alpha_gens + td.split3 + td.split1:
            assert is_pair(g), (p, d, g)
        assert td.alpha_gens[0][1] == (1, -2) and type(td.negated) is int
        assert [g for _, g in td.alpha_gens[td.width - len(td.inert):]] == [
            (q if q % 4 == 1 else -q, 0) for q in td.inert
        ]
    assert kinds == {"split3", "split1", "inert"}


def _coordinate_product(td, side, bits, twist):
    # the generators whose product is a coordinate, kept as an oracle
    gens = [g for _, g in td.alpha_gens] if side == "alpha" else second_shape(td)
    product: list[quadfield.Gen] = [g for i, g in enumerate(gens) if (bits >> i) & 1]
    if twist:
        # multiply by the torsion coordinate -pi*d (first shape) or pi*d
        # (second), with pi = sqrt(-p) = (-1, 2)
        product += [(1, -2) if side == "alpha" else (-1, 2), (td.d, 0)]
    return product


def _coordinate_ok_by_formal_product(td, side, bits, place_idx):
    # the parent's coordinate test on formal products of generators, kept
    # verbatim but for its memo
    v = td.places[place_idx]
    ok = False
    for twist in (False, True):
        x = _coordinate_product(td, side, bits, twist)
        if not x:
            ok = True
            break
        if quadfield.is_local_square(td.ctx, x, v):
            ok = True
            break
    return ok


def _survivors_by_formal_products(td):
    return tuple(
        tuple(
            bits
            for bits in range(1 << td.width)
            if all(_coordinate_ok_by_formal_product(td, side, bits, idx) for idx in range(len(td.places)))
        )
        for side in ("alpha", "beta")
    )


def _mixed_twists(p, widths, seed):
    # products of split and inert primes below 400, at least one of each,
    # each with the sign that makes it 1 mod 4
    from eisq.quadfield import FieldCtx, classify_prime

    ctx = FieldCtx(p)
    primes = [q for q in range(3, 400, 2) if is_prime(q) and q != p]
    split = [q for q in primes if classify_prime(ctx, q) == "split"]
    inert = [q for q in primes if classify_prime(ctx, q) == "inert"]
    rng = random.Random(f"{seed}:{p}")
    out = []
    for w in widths:
        k = rng.randint(1, (w - 1) // 2 - 1)
        qs = rng.sample(split, k) + rng.sample(inert, w - 1 - 2 * k)
        out.append(math.prod(q if q % 4 == 1 else -q for q in qs))
    return out


def test_local_table_against_formal_products():
    # the survivors the oracle counts, from the table of local data,
    # against the coordinate test on formal products it replaced
    cases = [(p, d) for p in (7, 23) for d in admissible_twists_between(p, -400, 400)]
    wide = [(p, d) for p in (7, 23, 31, 47, 71) for d in _mixed_twists(p, (9, 11), 20161226)]
    assert sorted(build_twist(p, d).width for p, d in wide) == [9] * 5 + [11] * 5
    for p, d in cases + wide:
        survivors = selmer._survivors(build_twist(p, d))
        expected = _survivors_by_formal_products(build_twist(p, d))
        assert tuple(map(tuple, survivors)) == expected, (p, d)


def test_torsion_image_checked_on_formal_products(monkeypatch):
    # the torsion check does not read the table: a formal-product test that
    # fails at one place raises, while the table's survivors are unchanged
    real = quadfield.is_local_square
    monkeypatch.setattr(quadfield, "is_local_square", lambda ctx, x, v: v.kind != "ramified" and real(ctx, x, v))
    with pytest.raises(InternalCheckError, match="torsion image fails the local test: alpha at"):
        selmer_group_bruteforce(build_twist(7, -11))


def test_oracle_local_data_calls(monkeypatch):
    # on top of the rank's, the oracle reads the twist's table and takes,
    # at each place, one _local_data call for the class of -1 (the second
    # shape) and one per partner factor (-pi, pi, d), and the torsion check
    # on formal products one per generator and per partner factor of each
    # side
    import io
    from contextlib import redirect_stdout

    from eisq.cli import main

    calls = []
    real = quadfield._local_data
    monkeypatch.setattr(quadfield, "_local_data", lambda *args: calls.append(args) or real(*args))
    for p, d in ((7, -11), (23, -39), (71, -1155), (7, 271469), (71, 73110899070209)):
        counts = []
        for oracle in ([], ["--oracle"]):
            calls.clear()
            with redirect_stdout(io.StringIO()):
                assert main(["selmer", "--p", str(p), "--d", str(d), *oracle]) == 0
            counts.append(len(calls))
        td = build_twist(p, d)
        assert counts[0] == td.width**2 + td.width, (p, d, counts)
        assert counts[1] - counts[0] == len(td.places) * (4 + 2 * (td.width + 2)), (p, d, counts)
