"""Effective non-triviality verdicts for Heegner points on Eisenstein
quotients: prime level with odd q or q = 2, the Neumann-Setzer corollary,
level p^2, and the general rational-cuspidal-divisor criterion.

Verdicts are one-directional: "inconclusive" never means torsion, only
that the criterion does not apply."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import classgroup, etacusp
from .arith import is_prime, jacobi, valuation
from .errors import ValidationError

NONTORSION = "nontorsion"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TraceEntry:
    name: str
    value: str
    passed: bool
    assumed: bool = False  # cited facts used as-is, not recomputed here


@dataclass(frozen=True)
class Verdict:
    """A criterion's hypothesis trace; `conclusion` is read off it, so it is
    `nontorsion` exactly when every entry passes."""

    criterion_tag: str
    conclusion: str = field(init=False)
    trace: tuple[TraceEntry, ...]

    def __post_init__(self):
        ok = all(t.passed for t in self.trace)
        object.__setattr__(self, "conclusion", NONTORSION if ok else INCONCLUSIVE)


def _check_q(q: int) -> None:
    """The one test of an Eisenstein prime q of a verdict."""
    if math.gcd(q, 6) != 1 or not is_prime(q):
        raise ValidationError(f"q must be a prime coprime to 6, got {q}")


def roots_of_unity(k_disc: int) -> int:
    if k_disc == -3:
        return 6
    if k_disc == -4:
        return 4
    return 2


@dataclass(frozen=True)
class HeegnerSetup:
    """The class data of K that every verdict reads."""

    p: int  # the prime of the level
    k_disc: int
    h_k: int
    w_k: int
    split_ok: bool  # p splits in K

    def prime_power_order(self, k: int) -> int:
        """Order of the class of P^k for a prime P above p: o / gcd(o, k)
        from the order o of P, which is computed once per (K, p, h_K) per
        process.  The verdicts ask only at a split p; at a ramified p, P is
        the ramified prime, and an inert p raises in `prime_form`."""
        o = _prime_class_order(self.k_disc, self.p, self.h_k)
        return o // math.gcd(o, k)


# typed, as the class-number memo beside it: a non-int key is not read back
@functools.lru_cache(maxsize=classgroup.CLASS_NUMBER_MEMO, typed=True)
def _prime_class_order(k_disc: int, p: int, h_k: int) -> int:
    """The checked order of the class of a prime above a split p, given h_K.

    Kept in a memo of the last `CLASS_NUMBER_MEMO` keys, so the verdicts
    at one (K, p) compute it once; a call that raises keeps nothing.  h_K is
    part of the key: a hand-built set-up gets the order of its own h_K."""
    return classgroup.class_order(classgroup.prime_form(k_disc, p), h_k)


def heegner_setup(p: int, k_disc: int) -> HeegnerSetup:
    """Class data of K at the prime p of a level p or p^2; the level itself
    is never read.  `fundamental_class_number` tests that D is a negative
    discriminant, the cap on |D|, then that D is fundamental (a memo hit
    skips all three); `canonical_orders` tests p >= 5 prime; p splits when
    (D/p) = 1."""
    h = classgroup.fundamental_class_number(k_disc)
    etacusp.canonical_orders(p)
    return HeegnerSetup(p, k_disc, h, roots_of_unity(k_disc), jacobi(k_disc, p) == 1)


def _q_part(setup: HeegnerSetup, k: int, q: int, n: int, label: str) -> tuple[bool, str]:
    """Whether v_q(h_K/o) < v_q(n), o the order of the class of P^k, with
    its trace text; not evaluated when p does not split."""
    if not setup.split_ok:
        return False, "not evaluated"
    o = setup.prime_power_order(k)
    h = setup.h_k // o
    vq_h, vq_n = valuation(h, q), valuation(n, q)
    return vq_h < vq_n, f"v_{q}({h}) = {vq_h} vs v_{q}({n}) = {vq_n}, {label} = {o}"


def verdict_prime_level_odd_q(p: int, k_disc: int, q: int) -> Verdict:
    """Prime level, odd q dividing the cuspidal order n: the Heegner point
    projects to a point of infinite order on the q-Eisenstein quotient
    when p splits in K and v_q(h_K) < v_q(n), n = n_p of `canonical_orders`."""
    n = etacusp.canonical_orders(p)[0]
    _check_q(q)
    if n % q:
        raise ValidationError(f"q = {q} does not divide the cuspidal order n = {n}")
    setup = heegner_setup(p, k_disc)
    vq_h = valuation(setup.h_k, q)
    vq_n = valuation(n, q)
    o_p = setup.prime_power_order(1) if setup.split_ok else "not evaluated"
    trace = (
        TraceEntry("q divides n", f"q={q}, n={n}", True),
        # w_K is 2, 4 or 6 and q is coprime to 6, so this always holds
        TraceEntry("gcd(q, 6w_K) = 1", f"w_K={setup.w_k}", True),
        TraceEntry(f"{p} splits in K", str(setup.split_ok), setup.split_ok),
        TraceEntry(
            "v_q(h_K) < v_q(n)",
            f"v_{q}({setup.h_k}) = {vq_h} vs v_{q}({n}) = {vq_n}, o(p-class) = {o_p}",
            vq_h < vq_n,
        ),
        TraceEntry("J[m_q](K)^- = 0", "Z/q + mu_q torsion structure (cited)", True, assumed=True),
    )
    return Verdict("prime_level_odd_q", trace)


def verdict_prime_level_2(p: int, k_disc: int) -> Verdict:
    """Prime level, q = 2: infinite order on the 2-Eisenstein quotient when
    2 | n, p splits in K and h_K is odd, n = n_p of `canonical_orders`."""
    n = etacusp.canonical_orders(p)[0]
    if n % 2:
        raise ValidationError(f"2 does not divide the cuspidal order n = {n}")
    setup = heegner_setup(p, k_disc)
    odd = setup.h_k % 2 == 1
    trace = (
        TraceEntry("2 divides n", f"n={n}", True),
        TraceEntry(f"{p} splits in K", str(setup.split_ok), setup.split_ok),
        TraceEntry("h_K is odd", f"h_K={setup.h_k}", odd),
    )
    return Verdict("prime_level_2", trace)


@dataclass(frozen=True)
class NeumannSetzerReport:
    is_ns_prime: bool  # p = u^2 + 64 with u odd
    u: Optional[int]
    u_mod_8: Optional[int]
    two_eisenstein_simple: bool  # u = +-3 (mod 8)


def neumann_setzer(p: int) -> NeumannSetzerReport:
    """Detect p = u^2 + 64 (u odd, taken positive); u = +-3 (mod 8) makes
    the 2-Eisenstein quotient simple, hence a Neumann-Setzer curve."""
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    if p > 64:
        u = math.isqrt(p - 64)
        if u * u + 64 == p and u % 2 == 1:
            return NeumannSetzerReport(True, u, u % 8, u % 8 in (3, 5))
    return NeumannSetzerReport(False, None, None, False)


def verdict_ns_curve(p: int, k_disc: int) -> Verdict:
    """Neumann-Setzer corollary: for p = u^2 + 64 with u = +-3 (mod 8) and
    K imaginary quadratic with odd class number in which p splits, the
    curve has rank 1 over K and finite Tate-Shafarevich group."""
    ns = neumann_setzer(p)
    setup = heegner_setup(p, k_disc) if ns.is_ns_prime else None
    trace = [
        TraceEntry("p = u^2 + 64", f"u={ns.u}" if ns.is_ns_prime else "no", ns.is_ns_prime),
        TraceEntry(
            "u = +-3 (mod 8), so the 2-Eisenstein quotient is simple",
            f"u mod 8 = {ns.u_mod_8}",
            ns.two_eisenstein_simple,
        ),
    ]
    if setup is not None:
        trace.append(TraceEntry(f"{p} splits in K", str(setup.split_ok), setup.split_ok))
        trace.append(TraceEntry("h_K is odd", f"h_K={setup.h_k}", setup.h_k % 2 == 1))
    else:
        trace.append(TraceEntry(f"{p} splits in K", "not evaluated", False))
    return Verdict("ns_corollary", tuple(trace))


def verdict_p2_level(p: int, k_disc: int, q: int) -> Verdict:
    """Level p^2, odd q with q | (p+1): non-torsion projection when p
    splits in K and v_q(h_K / o(p-class)) < v_q(n), n = n_p2 of `canonical_orders`."""
    n = etacusp.canonical_orders(p)[1]
    _check_q(q)
    if (p + 1) % q:
        raise ValidationError(f"q = {q} does not divide p + 1 = {p + 1}")
    setup = heegner_setup(p, k_disc)
    val_ok, val_text = _q_part(setup, 1, q, n, "o")
    trace = (
        TraceEntry("q | (p+1) and q | n", f"q={q}, n={n}", True),
        TraceEntry(f"{p} splits in K", str(setup.split_ok), setup.split_ok),
        TraceEntry("v_q(h_K/o) < v_q(n)", val_text, val_ok),
        TraceEntry(
            "J[m_q](K)^- = 0", "nonsplit Z/q by mu_q extension (cited)", True, assumed=True
        ),
    )
    return Verdict("p2_level", trace)


def verdict_rational_divisor(
    level: int,
    r: Mapping[int, int],
    div: etacusp.CuspDivisor,
    k_disc: int,
    q: int,
) -> Verdict:
    """General criterion for a rational cuspidal divisor class of order n
    presented by an eta-product with divisor n*D.

    The descent value is a unit times alpha^(h_K/o(a_r)) where a_r is the
    square root of the inverted eta-ideal product; for odd q that value
    survives in the q-part exactly when v_q(h_K/o(a_r)) < v_q(n), provided
    the root ideal is nontrivial.

    With p split in K the divisor ideals are powers of one prime P above
    p, so the product collapses to P^e, e the prime exponent of the
    eta-product, which `etacusp` checks to be even, and a_r = P^(-e/2)."""
    if all(v == 0 for v in r.values()):
        raise ValidationError("zero exponent vector has no associated order")
    _check_q(q)
    p, n, exponent, special = etacusp._rational_eta_product(level, r, div)
    if n % q:
        raise ValidationError(f"q = {q} does not divide the class order n = {n}")
    setup = heegner_setup(p, k_disc)
    nontrivial = setup.split_ok and exponent != 0
    val_ok, val_text = _q_part(setup, -exponent // 2, q, n, "o(a_r)")
    trace = (
        TraceEntry("n*D = div(eta-product)", f"n = {n}", True),
        TraceEntry("Heegner hypothesis", str(setup.split_ok), setup.split_ok),
        TraceEntry(
            "root ideal a_r is nontrivial",
            f"prime exponent {-exponent // 2}",
            nontrivial,
        ),
        TraceEntry("v_q(h_r) < v_q(n)", val_text, val_ok),
        TraceEntry("J[m_q](K)^- = 0", "cited", True, assumed=True),
        TraceEntry(
            "descent is Hecke-equivariant",
            "canonical eta-product" if special else "assumed for this eta-product",
            True,
            assumed=not special,
        ),
    )
    return Verdict("rational_divisor", trace)
