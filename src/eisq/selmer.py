"""2-Selmer groups of quadratic twists of the CM curves attached to
Q(sqrt(-p)) for p = 7 (mod 8): one table of the local classes of the
generators at the places over p*d, the rank by the corank of the first
shape's local conditions on it, checked against the second shape's (the
first negated at one mask of generators), against the even-partition walk
on the residue-symbol graph read off the same table and, without a split
prime, against the minimality criterion, and an exhaustive local-conditions
oracle that returns the F2-dimension."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from . import quadfield
from .arith import factor, is_prime
from .classgroup import fundamental_class_number
from .errors import InternalCheckError, ResourceCapError, ValidationError
from .quadfield import FieldCtx, Gen, PlaceK

# the oracle walks 2 * 2^n coordinate values, so 4^n pairs: twists of width
# up to 12 fit, and on a 2-core VM the median width-11 twist takes 50-65 ms
ORACLE_PAIR_CAP = 2**24
# count_even_partitions walks 2^n subsets: on a 2-core VM about 3 ms at 13
# vertices and 50 ms at 17 (twists by 6 and 8 split primes), and 6 s for a
# random graph at the cap
PARTITION_VERTEX_CAP = 24


@dataclass
class TwistDatum:
    """A twist parameter d = prod(-q_i) * prod(q'_j) * prod(Q*_k) over Q(sqrt(-p)).

    The first coordinate ranges over products of the generators
    {-pi, f_i, -fbar_i, g_j, gbar_j, Q*_k}, each the int pair (a, b) of
    a + b*w: pi = sqrt(-p) = (-1, 2) and Q* = (Q*, 0).  The second ranges
    over {pi, -f_i, fbar_i, g_j, gbar_j, Q*_k}, the first shape's
    generators with those in the mask `negated` times -1.  Place j is the
    place of generator j of either shape, and `table[j][i]` is the
    (valuation, symbol) of first-shape generator i at place j."""

    ctx: FieldCtx
    d: int
    split3: list[tuple[int, Gen]]  # q = 3 (4) split, its normalized generator (a, b)
    split1: list[tuple[int, Gen]]  # q = 1 (4) split, its normalized generator (a, b)
    inert: list[int]  # inert primes Q; Q* = (-1)^((Q-1)/2) Q
    places: list[PlaceK]
    alpha_gens: list[tuple[str, Gen]]
    table: list[list[tuple[int, int]]]

    @property
    def width(self) -> int:
        return len(self.alpha_gens)

    @property
    def negated(self) -> int:
        """The bit mask of the generators that the second shape negates:
        the first 1 + 2 #split3, -pi, f_i and -fbar_i."""
        return (1 << (1 + 2 * len(self.split3))) - 1


def build_twist(p: int, d: int) -> TwistDatum:
    """Validate and factor a twist parameter, then build places, generators
    and the table of their local data, one `_local_data` call per
    (generator, place).

    d is the one number factored: the generator of each split q and its
    place come from q itself.

    Requires p = 7 (mod 8) (so 2 splits and the graph machinery applies),
    and d squarefree, = 1 (mod 4), coprime to 2p."""
    if not is_prime(p) or p % 8 != 7:
        raise ValidationError(
            f"p = {p} is not a prime congruent to 7 mod 8; the rank criterion "
            "needs 2 split in Q(sqrt(-p))"
        )
    ctx = FieldCtx(p)
    if d % 4 != 1:
        raise ValidationError(f"twist parameter must be 1 mod 4, got {d}")
    if math.gcd(d, 2 * p) != 1:
        raise ValidationError(f"twist parameter must be coprime to 2p, got {d}")
    fac = factor(d)
    if not fac.is_squarefree():
        raise ValidationError(f"twist parameter must be squarefree, got {d}")
    h = fundamental_class_number(-p)
    split3: list[tuple[int, Gen]] = []
    split1: list[tuple[int, Gen]] = []
    inert: list[int] = []
    # q -> its places, for a split q the place of its generator first
    above: dict[int, list[PlaceK]] = {}
    for q in fac.primes():
        above[q] = quadfield.places_above(ctx, q)
        if above[q][0].kind == quadfield.INERT:
            inert.append(q)
            continue
        gen = a, b = quadfield.split_generator(ctx, q, h)
        if (a + b * above[q][0].omega_residue) % q:
            above[q].reverse()
        (split3 if q % 4 == 3 else split1).append((q, gen))
    recomposed = 1
    for q, _ in split3:
        recomposed *= -q
    for q, _ in split1:
        recomposed *= q
    for q in inert:
        recomposed *= q if q % 4 == 1 else -q
    if recomposed != d:
        raise InternalCheckError(f"sign decomposition failed: {recomposed} != {d}")
    alpha_gens: list[tuple[str, Gen]] = [("-pi", (1, -2))]
    places = quadfield.places_above(ctx, p)
    for q, f in split3:
        alpha_gens.append((f"f({q})", f))
        places.append(above[q][0])
    for q, (a, b) in split3:
        alpha_gens.append((f"-fbar({q})", (-a - b, b)))
        places.append(above[q][1])
    for q, g in split1:
        alpha_gens.append((f"g({q})", g))
        places.append(above[q][0])
    for q, (a, b) in split1:
        alpha_gens.append((f"gbar({q})", (a + b, -b)))
        places.append(above[q][1])
    for q in inert:
        qs = q if q % 4 == 1 else -q
        alpha_gens.append((str(qs), (qs, 0)))
        places.append(above[q][0])
    return TwistDatum(
        ctx=ctx,
        d=d,
        split3=split3,
        split1=split1,
        inert=inert,
        places=places,
        alpha_gens=alpha_gens,
        table=[[quadfield._local_data(ctx, g, v) for _, g in alpha_gens] for v in places],
    )


def _sign_flips(td: TwistDatum) -> list[int]:
    """At each place, the generators whose symbol the second shape flips:
    those it negates, where -1 is not a square."""
    negated = td.negated
    return [negated if quadfield._local_data(td.ctx, (-1, 0), v)[1] == -1 else 0 for v in td.places]


def _oracle_table(td: TwistDatum) -> list[dict[str, tuple[list, list]]]:
    """At each place, for each side, (valuation, symbol) of every generator
    of that shape, read off the twist's table, and of the factors of its
    torsion partner, -pi and d (first shape) or pi and d (second), one
    `_local_data` call each."""
    out = []
    for v, row, flips in zip(td.places, td.table, _sign_flips(td)):
        d = quadfield._local_data(td.ctx, (td.d, 0), v)
        second = [(val, -sym if flips >> i & 1 else sym) for i, (val, sym) in enumerate(row)]
        out.append({
            "alpha": (row, [quadfield._local_data(td.ctx, (1, -2), v), d]),
            "beta": (second, [quadfield._local_data(td.ctx, (-1, 2), v), d]),
        })
    return out


def _coordinate_ok_at(local: list, side: str, bits: int, place_idx: int) -> bool:
    # whether the coordinate, possibly multiplied by its torsion partner,
    # is a local square at the given place: the square-class predicate on
    # the (valuation, symbol) of each factor, read off the oracle's table
    gens, partner = local[place_idx][side]
    for twist in (False, True):
        factors = [data for i, data in enumerate(gens) if (bits >> i) & 1]
        if twist:
            factors += partner
        if quadfield._is_square_class(factors):
            return True
    return False


def _survivors(td: TwistDatum) -> list[list[int]]:
    """The exponent bit vectors (bit i = generator i) of each shape whose
    coordinate passes at every place, read off the oracle's table."""
    local = _oracle_table(td)
    return [
        [bits for bits in range(1 << td.width) if all(_coordinate_ok_at(local, side, bits, idx) for idx in range(len(td.places)))]
        for side in ("alpha", "beta")
    ]


def selmer_group_bruteforce(td: TwistDatum) -> int:
    """Exhaustive oracle over the candidate pairs, at most `ORACLE_PAIR_CAP`.

    A candidate is in the group when at every place over p*d some 2-torsion
    image pair (x, y), x in {1, -pi d} and y in {1, pi d}, makes both of its
    coordinates local squares.  That quantifies over a product set of torsion
    pairs, so it splits exactly into independent coordinate conditions;
    every coordinate value is tested by the local-square predicate of
    `quadfield` on the oracle's table of local data, and the pair survivors
    are the product of the two survivor sets.  Verifies the survivors form
    a group containing the torsion image and returns its F2-dimension."""
    width = td.width
    if 4**width > ORACLE_PAIR_CAP:
        raise ResourceCapError(
            f"instance too large for oracle: 4^{width} pairs exceed cap {ORACLE_PAIR_CAP}"
        )
    alpha, beta = _survivors(td)
    # subgroup check: closed under multiplication, i.e. XOR of exponent
    # vectors, and holding the all-ones vector of the torsion image
    for keep in (alpha, beta):
        kset = set(keep)
        if 0 not in kset:
            raise InternalCheckError("survivor set misses the identity")
        for x in keep:
            for y in keep:
                if x ^ y not in kset:
                    raise InternalCheckError("survivor set is not a subgroup")
        if (1 << width) - 1 not in kset:
            raise InternalCheckError("torsion image escapes the survivor set")
    # the torsion image, read off the table above, checked on products of
    # generators by `is_local_square`, which computes its own local data:
    # each full product of generators times its partner, -pi d or pi d,
    # is a square at every place
    first = [g for _, g in td.alpha_gens]
    negated = td.negated
    second = [(-a, -b) if negated >> i & 1 else (a, b) for i, (a, b) in enumerate(first)]
    for side, gens, partner in (("alpha", first, (1, -2)), ("beta", second, (-1, 2))):
        product = gens + [partner, (td.d, 0)]
        for v in td.places:
            if not quadfield.is_local_square(td.ctx, product, v):
                raise InternalCheckError(f"torsion image fails the local test: {side} at {v}")
    return _f2_dimension(alpha) + _f2_dimension(beta)


def _f2_basis(rows) -> list[int]:
    """A basis of the F2 span of bitmask rows: elimination that keeps one
    pivot row per leading bit, O(len(rows) * rank) word operations."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return list(pivots.values())


def _f2_dimension(group: list[int]) -> int:
    """The F2-dimension of a subgroup listed in full, which must then hold
    2^dimension elements."""
    dim = len(_f2_basis(group))
    if 1 << dim != len(group):
        raise InternalCheckError("survivor count is not a power of two")
    return dim


# --- the residue-symbol graph ----------------------------------------------


@dataclass(frozen=True)
class SelmerGraph:
    """Vertex i is first-shape generator i of the twist."""

    arrows: tuple[tuple[bool, ...], ...]  # arrows[i][j]: arrow from i to j

    @property
    def size(self) -> int:
        return len(self.arrows)


def build_graph(td: TwistDatum) -> SelmerGraph:
    """Graph on {-pi, f_i, -fbar_i, g_j, gbar_j, Q*_k}: an arrow x -> y
    whenever the residue symbol of x at the place of y is -1, read off the
    twist's table, where x must be a unit at the place of every other y and
    of odd valuation at its own, as `_local_coranks` needs."""
    arrows = []
    for i, column in enumerate(zip(*td.table)):
        row = []
        for j, (val, sym) in enumerate(column):
            if i == j and val % 2 == 0:
                raise InternalCheckError(
                    f"{td.alpha_gens[i][0]} has even valuation at its own place {td.places[j].label()} "
                    f"(p={td.ctx.p}, d={td.d})"
                )
            if i != j and val:
                raise InternalCheckError(
                    f"{td.alpha_gens[i][0]} is not a unit at {td.places[j].label()} (p={td.ctx.p}, d={td.d})"
                )
            row.append(i != j and sym == -1)
        arrows.append(tuple(row))
    return SelmerGraph(tuple(arrows))


def count_even_partitions(graph: SelmerGraph):
    """Even-partition data of the graph.

    A bipartition {V1, V2} is even when every vertex receives an even
    number of arrows from the opposite part.  Even vertex subsets form an
    F2-subspace closed under complement; the rank formula consumes its
    partition dimension t (so the number of even partitions, including the
    trivial one, is 2^t).  Returns (t, number of nontrivial even partitions).
    A graph of more than `PARTITION_VERTEX_CAP` vertices raises before the walk.
    """
    n = graph.size
    if n > PARTITION_VERTEX_CAP:
        raise ResourceCapError(f"{n} vertices exceed the partition cap {PARTITION_VERTEX_CAP}")
    # (bit of y, mask of the vertices with an arrow into y) for each vertex y
    vertices = []
    for j in range(n):
        mask = 0
        for i in range(n):
            if graph.arrows[i][j]:
                mask |= 1 << i
        vertices.append((1 << j, mask))
    full = (1 << n) - 1
    even_sets = []
    for s in range(1 << n):
        outside = full ^ s
        for bit, in_mask in vertices:
            # the arrows into y from the part that does not hold y
            if (in_mask & (outside if s & bit else s)).bit_count() & 1:
                break
        else:
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


def _local_coranks(td: TwistDatum) -> tuple[int, int]:
    """dim_F2 of the group the local conditions cut out, for each shape.

    At each place a product of generators has a class (valuation parity,
    symbol bit) in F2^2, which must be 0 or the class c of its torsion
    partner: the class of the product of all generators of the shape, since
    f (-fbar) = -q^h and g gbar = q^h with h odd.  So every functional that
    vanishes at c must vanish: of the valuation row, the symbol row and
    their sum, those of even weight.

    Where generator y has odd valuation at place y and is a unit at every
    other place (`build_graph` checks both), the first shape's one row at
    place y is the in-arrow mask of y in the graph plus bit y when y has odd
    in-degree: the graph's Laplacian D_in + A^T over F2 (Monsky's matrix),
    whose kernel is the even vertex sets.  So the first corank is t + 1."""
    first: list[int] = []
    second: list[int] = []
    for row, flips in zip(td.table, _sign_flips(td)):
        val = sym = 0
        bit = 1
        for e, s in row:
            if e & 1:
                val |= bit
            if s == -1:
                sym |= bit
            bit <<= 1
        for rows, s in ((first, sym), (second, sym ^ flips)):
            for r in (val, s, val ^ s):
                if not r.bit_count() & 1:
                    rows.append(r)
    return td.width - len(_f2_basis(first)), td.width - len(_f2_basis(second))


@dataclass(frozen=True)
class GraphRankResult:
    t: int
    nontrivial_even_partitions: int
    rank: int  # 1 + 2t, the rank over O/2O
    dim_f2: int  # 2 + 2t, dictionary: dim = rank + 1
    graph: SelmerGraph


def selmer_rank_graph(td: TwistDatum) -> GraphRankResult:
    """Rank of the 2-Selmer group by the graph criterion: 1 + 2t.

    t is the first shape's local-condition corank less one.  Every call
    checks it twice: against the even-partition walk on the graph, and
    against the second shape's corank, so that both shapes give dimension
    2 + 2t.  On a twist without a split prime it then checks the rank
    against the minimality criterion."""
    graph = build_graph(td)
    first, second = _local_coranks(td)
    t = first - 1
    walk_t, _ = count_even_partitions(graph)
    if walk_t != t:
        raise InternalCheckError(f"partition counts disagree at p={td.ctx.p}, d={td.d}: corank {t}, walk {walk_t}")
    if second != first:
        raise InternalCheckError(
            f"local conditions give dim {first + second}, graph {2 + 2 * t} at p={td.ctx.p}, d={td.d}"
        )
    rank = 1 + 2 * t
    if not (td.split3 or td.split1):
        _check_minimality(td, rank)
    return GraphRankResult(
        t=t,
        nontrivial_even_partitions=(1 << t) - 1,
        rank=rank,
        dim_f2=2 + 2 * t,
        graph=graph,
    )


def _check_minimality(td: TwistDatum, rank: int) -> None:
    """Minimality for twists by inert primes only: the group collapses to
    the 2-torsion exactly when every Q_i = 1 (mod 4), and in general the
    rank is at least 1 + #(Q_i = 3 mod 4)."""
    bound = 1 + sum(q % 4 == 3 for q in td.inert)
    if rank < bound or (rank == 1) != (bound == 1):
        raise InternalCheckError(f"minimality cross-check failed for d={td.d}: rank {rank}, bound {bound}")


def admissible_twists_between(p: int, lo: int, hi: int) -> Iterator[int]:
    """Yield the admissible d (squarefree, = 1 mod 4, gcd(d, 2p) = 1) with
    lo <= d <= hi, sorted by |d|: only the |d| that the range reaches are
    walked, one at a time, and each odd |d| has one sign with d = 1 (mod 4)."""
    low = 1 if lo <= 0 <= hi else min(abs(lo), abs(hi)) | 1
    for absd in range(low, max(abs(lo), abs(hi)) + 1, 2):
        d = absd if absd % 4 == 1 else -absd
        if lo <= d <= hi and math.gcd(d, 2 * p) == 1 and factor(d).is_squarefree():
            yield d
