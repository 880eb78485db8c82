"""Seeded inputs for the three workloads, built in whole rounds.

Inputs come from this file's own sieve and splitting test (checks.py),
never from eisq, so a change to the program cannot change them.  A round
is a fixed mix of operations; a run executes whole rounds, so every run
has the same mix whatever its seed and length.  Within a run no input
repeats, except that a level recurs across the discriminants of its
round in `eisenstein-levels`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import checks

SELMER_PRIMES = (7, 23, 31, 47, 71)
# width 7 three times: the middle half of a round, which op_iqm_ms
# averages, is then mostly width-7 twists instead of an edge between widths
ORACLE_WIDTHS = (3, 5, 7, 7, 7, 9, 11)
WIDE_SPLIT_COUNTS = (6, 7, 8)
TWIST_PRIME_LIMIT = 400
LEVEL_PRIME_RANGE = (5, 1200)
LEVEL_CLASSES = (1, 5, 7, 11)  # p mod 12; one level of each class per round
LEVELS_PER_ROUND = len(LEVEL_CLASSES)
DISC_DECADES = (3, 4, 5, 6)  # one |K| in [10^e, 10^(e+1)] per decade
DISC_MAX = 10**7
DISC_SKIP = 4  # the seed skips 0-3 admissible discriminants past each grid point
# a fixed discriminant near -10^7 with a large class number (h = 6368),
# enumerated in the warm-up so that every run's peak memory includes the
# largest classnum output the workload produces, whatever K the seed draws
WARMUP_DISC = -9983951
EIGEN_PREC = 10000

WORKLOADS = ("selmer-oracle", "selmer-wide", "eisenstein-levels")

_SMALL_PRIMES = checks.sieve(math.isqrt(DISC_MAX) + 2)


@dataclass
class Op:
    """One operation: a CLI call (argv) or a library call (module, func, args).

    `check` turns the parsed output into a list of problems.  `level` names
    the level the operation works at, when it has one."""

    kind: str
    check: Callable[[object], list]
    argv: Optional[list] = None
    module: Optional[str] = None
    func: Optional[str] = None
    make_args: Optional[Callable] = None
    level: Optional[int] = None
    prepared: tuple = ()


def _cli(kind, argv, check, level=None) -> Op:
    return Op(kind, check, argv=list(argv) + ["--format", "json"], level=level)


def twist_d(primes) -> int:
    d = 1
    for q in primes:
        d *= q if q % 4 == 1 else -q
    return d


def _twist_pools(p: int):
    pool = [q for q in checks.sieve(TWIST_PRIME_LIMIT) if q > 2 and q != p]
    split = [q for q in pool if checks.splits(p, q)]
    inert = [q for q in pool if not checks.splits(p, q)]
    return split, inert


def _selmer_op(p, split, inert, oracle) -> Op:
    d = twist_d(split + inert)
    argv = ["selmer", "--p", str(p), "--d", str(d)] + (["--oracle"] if oracle else [])
    kind = f"selmer-w{1 + 2 * len(split) + len(inert)}"
    return _cli(
        kind, argv, lambda row: checks.check_selmer(row, p, d, split, inert, oracle)
    )


def selmer_oracle_rounds(seed: int) -> Iterator[list]:
    """Each round: every p in SELMER_PRIMES at every width in ORACLE_WIDTHS.

    The number of split primes rotates with the round, so each round mixes
    split-heavy and inert-heavy twists of every width."""
    rng = random.Random(f"selmer-oracle:{seed}")
    pools = {p: _twist_pools(p) for p in SELMER_PRIMES}
    seen = set()
    r = 0
    while True:
        ops = []
        for pi, p in enumerate(SELMER_PRIMES):
            split_pool, inert_pool = pools[p]
            for wi, w in enumerate(ORACLE_WIDTHS):
                choices = (w - 1) // 2 + 1
                s = (pi + wi + r) % choices
                while True:
                    split = sorted(rng.sample(split_pool, s))
                    inert = sorted(rng.sample(inert_pool, w - 1 - 2 * s))
                    key = (p, twist_d(split + inert))
                    if key not in seen:
                        break
                seen.add(key)
                ops.append(_selmer_op(p, split, inert, True))
        yield ops
        r += 1


def selmer_wide_rounds(seed: int) -> Iterator[list]:
    """Each round: one twist by 6, 7 and 8 split primes (13, 15, 17 vertices)."""
    rng = random.Random(f"selmer-wide:{seed}")
    pools = {p: _twist_pools(p)[0] for p in SELMER_PRIMES}
    seen = set()
    r = 0
    while True:
        ops = []
        for k in WIDE_SPLIT_COUNTS:
            p = SELMER_PRIMES[(len(WIDE_SPLIT_COUNTS) * r + k) % len(SELMER_PRIMES)]
            while True:
                split = sorted(rng.sample(pools[p], k))
                if (p, tuple(split)) not in seen:
                    break
            seen.add((p, tuple(split)))
            ops.append(_selmer_op(p, split, [], False))
        yield ops
        r += 1


def _prime_factor_from_5(n: int) -> Optional[int]:
    """The least prime factor q >= 5 of n, or None."""
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    for q in _SMALL_PRIMES[2:]:
        if q * q > n:
            break
        if n % q == 0:
            return q
    return n if n > 1 else None


def level_qs(p: int) -> tuple[Optional[int], Optional[int], Optional[int]]:
    """Eisenstein primes used at level p: for `heegner --p` (an odd q >= 5
    dividing n_p, else 2 when n_p is even), for `heegner --p2` (a q >= 5
    dividing p + 1) and for the rational-divisor verdict (a q >= 5 dividing
    (p^2 - 1)/24)."""
    n_p = checks.prime_level_order(p)
    q_p = _prime_factor_from_5(n_p) or (2 if n_p % 2 == 0 else None)
    return q_p, _prime_factor_from_5(p + 1), _prime_factor_from_5(checks.p2_level_order(p))


def _draw_disc(position: float, skip: int, e: int, p: int, seen: set) -> int:
    """The (skip + 1)-th fundamental discriminant K with |K| >= 10^(e + position)
    (wrapping to 10^e past the decade) in which p splits and that this run
    has not used."""
    lo, hi = 10**e, min(10 ** (e + 1), DISC_MAX)
    a = int(lo * (hi / lo) ** position)
    while True:
        if a > hi:
            a = lo
        disc = -a
        if (
            disc not in seen
            and a % p
            and checks.is_fundamental(disc, _SMALL_PRIMES)
            and checks.disc_splits(disc, p)
        ):
            if not skip:
                seen.add(disc)
                return disc
            skip -= 1
        a += 1


def _verdict_args(p, disc, q):
    r = {1: -1, p: p + 1, p * p: -p}  # the canonical eta-product at level p^2
    coeffs = (Fraction(0), Fraction(1), Fraction(-(p - 1)))  # D = [p] - (p-1)[p^2]

    def make(mods):
        return (p * p, r, mods["etacusp"].CuspDivisor(p * p, coeffs), disc, q)

    return make


def level_round(p: int, positions, rng, seen_discs: set, class_numbers: dict) -> list:
    q_p, q_p2, q_r = level_qs(p)
    n = p * p
    ops = [
        _cli("eta-p", ["eta", "--N", str(p), "--special"], lambda doc: checks.check_eta(doc, p, 1), p),
        _cli("eta-p2", ["eta", "--N", str(n), "--special"], lambda doc: checks.check_eta(doc, p, 2), n),
        Op(
            "cuspidal",
            lambda rep: checks.check_cuspidal(rep.invariants, p),
            module="etacusp",
            func="cuspidal_group_invariants",
            make_args=lambda mods: (p,),
            level=n,
        ),
        _cli(
            "eigencheck",
            ["eigencheck", "--p", str(p), "--prec", str(EIGEN_PREC)],
            lambda doc: checks.check_eigencheck(doc, p, EIGEN_PREC),
            n,
        ),
    ]
    for e, position in zip(DISC_DECADES, positions):
        disc = _draw_disc(position, rng.randrange(DISC_SKIP), e, p, seen_discs)

        def h(disc=disc):
            if disc not in class_numbers:
                class_numbers[disc] = checks.class_number(disc)
            return class_numbers[disc]

        ops.append(
            _cli("classnum", ["classnum", "--disc", str(disc)], lambda doc, disc=disc, h=h: checks.check_classnum(doc, disc, h()))
        )
        if q_p:
            ops.append(
                _cli(
                    "heegner-p",
                    ["heegner", "--p", str(p), "--K", str(disc), "--q", str(q_p)],
                    lambda doc, disc=disc, h=h: checks.check_heegner_p(doc, p, disc, q_p, h()),
                    p,
                )
            )
        if q_p2:
            ops.append(
                _cli(
                    "heegner-p2",
                    ["heegner", "--p2", str(p), "--K", str(disc), "--q", str(q_p2)],
                    lambda doc, disc=disc, h=h: checks.check_heegner_p2(doc, p, disc, q_p2, h()),
                    n,
                )
            )
        if q_r:
            ops.append(
                Op(
                    "verdict",
                    lambda v, disc=disc, h=h: checks.check_rational_divisor(verdict_doc(v), p, disc, q_r, h()),
                    module="descent",
                    func="verdict_rational_divisor",
                    make_args=_verdict_args(p, disc, q_r),
                    level=n,
                )
            )
    return ops


def verdict_doc(v) -> dict:
    return {
        "criterion": v.criterion_tag,
        "conclusion": v.conclusion,
        "trace": [{"name": t.name, "value": t.value, "passed": t.passed} for t in v.trace],
    }


def radical_inverse(r: int) -> float:
    """The base-2 van der Corput point of r: 0, 1/2, 1/4, 3/4, 1/8, ...

    Any first 2^k points lie one in each cell of width 2^-k, so a run of any
    length samples a range about as evenly as a long run would."""
    x, scale = 0.0, 0.5
    while r:
        x += scale * (r & 1)
        r >>= 1
        scale /= 2
    return x


def eisenstein_level_rounds(seed: int) -> Iterator[list]:
    """Each round: one level prime p from each class p = 1, 5, 7, 11 (mod 12),
    each with one discriminant per decade of |K|.

    The level-p^2 lattice keeps 289 generators for p = 1 (mod 12) and 49
    to 97 for the other classes, so its cost grows with p about twice as
    fast for p = 1 (mod 12); each round takes one prime of each class.
    Within a class, round r takes the prime at the van der Corput point of
    r, shifted by a seeded amount below one cell of the first 8 rounds.

    Within a round the four |K| of a decade fall in its four quarters (on a
    log scale), at the van der Corput point of the round within the
    quarter; the seed picks which admissible discriminant near that point.
    So every run covers the levels and decades on the same stratified grid,
    and the seed moves each sample within its cell.  No level or
    discriminant repeats within a run."""
    rng = random.Random(f"eisenstein-levels:{seed}")
    levels = [p for p in checks.sieve(LEVEL_PRIME_RANGE[1]) if p >= LEVEL_PRIME_RANGE[0]]
    strata = [[p for p in levels if p % 12 == c] for c in LEVEL_CLASSES]
    shifts = [rng.random() / 8 for _ in strata]
    used: set = set()
    seen_discs: set = set()
    class_numbers: dict = {}
    for r in range(min(len(s) for s in strata)):
        ops = []
        for j, (stratum, shift) in enumerate(zip(strata, shifts)):
            i = int((radical_inverse(r) + shift) % 1 * len(stratum))
            while stratum[i] in used:
                i = (i + 1) % len(stratum)
            used.add(stratum[i])
            place = (radical_inverse(r) + 1 / 16) % 1
            positions = [(place + (j + r + k) % LEVELS_PER_ROUND) / LEVELS_PER_ROUND for k in range(len(DISC_DECADES))]
            ops += level_round(stratum[i], positions, rng, seen_discs, class_numbers)
        yield ops


ROUNDS = {
    "selmer-oracle": selmer_oracle_rounds,
    "selmer-wide": selmer_wide_rounds,
    "eisenstein-levels": eisenstein_level_rounds,
}

# fixed warm-up calls, the same for every seed
WARMUP = {
    "selmer-oracle": [["selmer", "--p", "7", "--d", "-11", "--oracle", "--format", "json"]],
    "selmer-wide": [["selmer", "--p", "7", "--d", "-11", "--format", "json"]],
    "eisenstein-levels": [
        ["eta", "--N", "121", "--special", "--format", "json"],
        ["classnum", "--disc", str(WARMUP_DISC), "--format", "json"],
        ["heegner", "--p", "11", "--K", "-7", "--q", "5", "--format", "json"],
    ],
}
