"""Heegner verdicts against Heegner points computed on the curve.

At six prime levels the Eisenstein quotient that a verdict speaks of is
an elliptic curve E of conductor p, the optimal quotient of X0(p):

- 11a1, y^2 + y = x^3 - x^2 - 10x - 20, which is X0(11), for
  `heegner --p 11 --q 5` (n = 5);
- 17a1, y^2 + xy + y = x^3 - x^2 - x - 14, which is X0(17), for
  `heegner --p 17` with q = 2 (n = 4);
- the Neumann-Setzer curves of p = u^2 + 64, E: y^2 + xy =
  x^3 - ((u+1)/4)x^2 + 4x - u (Setzer, *J. London Math. Soc.* 1975), for
  `heegner --ns p`, with u = 3 (mod 4): 73a1, y^2 + xy = x^3 - x^2 + 4x - 3
  (u = 3); at p = 89, y^2 + xy = x^3 + x^2 + 4x + 5 (u = -5); at p = 113,
  y^2 + xy = x^3 - 2x^2 + 4x - 7 (u = 7), where u = 7 (mod 8) and the
  corollary claims nothing; and at p = 233, y^2 + xy = x^3 + 3x^2 + 4x + 13
  (u = -13).

A verdict `nontorsion` claims that the Heegner point P_K has infinite
order on E.  Here P_K is computed in floats, with nothing from `descent`
or `classgroup`:

- a_n by counting points mod each prime l, then multiplicatively; the
  parametrisation X0(p) -> C/Lambda is phi(tau) = sum a_n/n q^n;
- the period lattice Lambda from phi(g tau0) - phi(tau0), g = [[a, b],
  [p, d]] in Gamma0(p), tau0 = (-d + i)/p, so that g tau0 = (a + i)/p:
  Lambda comes from the same phi, so the Manin constant does not enter;
- P_K = sum phi(tau) over one Heegner form (A, B, C) per class of D, with
  p | A and B = beta (mod 2p), the smallest A per class, the classes told
  apart by this file's own reduction of forms.

P_K is torsion exactly when m z lies in Lambda for some m <= 24: torsion
over a quadratic field has exponent at most 18 (Kamienny 1992;
Kenku-Momose 1988).  By Gross-Zagier (*Invent. Math.* 1986) P_K has
infinite order exactly when L'(E/K, 1) != 0.  The verdicts are
one-directional, so only "nontorsion verdict => P_K of infinite order" is
asserted; an inconclusive verdict with P_K torsion shows why inconclusive
never means torsion.  E has rank 0 over Q, so P_K + conj(P_K), a point of
E(Q), is torsion at every D: a check of the numerics.  Cremona's
*Algorithms for Modular Elliptic Curves* covers the periods and the
parametrisation.
"""

import cmath
import functools
import math

import pytest

from eisq import descent
from eisq.errors import ValidationError
from eisq.etacusp import CuspDivisor, special_function

# level: (Weierstrass [a1, a2, a3, a4, a6], cap on |D|)
CURVES = {
    11: ([0, -1, 1, -10, -20], 3000),
    17: ([1, -1, 1, -1, -14], 3000),
    73: ([1, -1, 0, 4, -3], 1500),
    89: ([1, 1, 0, 4, 5], 1500),
    113: ([1, -2, 0, 4, -7], 1500),
    233: ([1, 3, 0, 4, 13], 1500),
}
TERMS = 36  # a q-series stops once |q|^n < e^-TERMS
# distance from an integer that counts as integral: the torsion points
# found are within 3e-14 of the lattice, the others at least 7e-6 away
TOL = 1e-9


def _squarefree(n):
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


def _fundamental(disc):
    if disc % 4 == 1:
        return _squarefree(-disc)
    return disc % 4 == 0 and (disc // 4) % 4 in (2, 3) and _squarefree(-disc // 4)


def _reduce(a, b, c):
    """The reduced form of the class of the positive definite (a, b, c)."""
    while True:
        k = (a - b) // (2 * a)  # b + 2ak in (-a, a]
        b, c = b + 2 * a * k, a * k * k + b * k + c
        if a <= c:
            return (a, -b, c) if a == c and b < 0 else (a, b, c)
        a, b, c = c, -b, a


def _reduced_forms(disc):
    """The primitive reduced forms of discriminant disc < 0."""
    forms = []
    for a in range(1, math.isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            c, rem = divmod(b * b - disc, 4 * a)
            if not rem and c >= a and not (a == c and b < 0) and math.gcd(a, b, c) == 1:
                forms.append((a, b, c))
    return forms


def _heegner_taus(p, disc):
    """One Heegner point per class of disc: the form (A, B, C) of smallest
    A with p | A and B = beta (mod 2p), beta the least root of disc mod 4p."""
    beta = next(b for b in range(2 * p) if (b * b - disc) % (4 * p) == 0)
    h = len(_reduced_forms(disc))
    taus, k = {}, 0
    while len(taus) < h:
        k += 1
        big_a = p * k
        for j in range(k):
            big_b = (beta + 2 * p * j + big_a - 1) % (2 * big_a) - big_a + 1  # into (-A, A]
            c, rem = divmod(big_b * big_b - disc, 4 * big_a)
            if not rem and math.gcd(big_a, big_b, c) == 1:
                taus.setdefault(_reduce(big_a, big_b, c), complex(-big_b, math.sqrt(-disc)) / (2 * big_a))
    return h, list(taus.values())


def _coefficients(ainvs, p, size):
    """a_1..a_size of E (index 0 unused): a_l = l - #affine points mod l,
    a_{l^k} by the Hecke recursion (a_l^k at the bad prime p), a_mn = a_m a_n."""
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, a1 * a3 + 2 * a4, a3 * a3 + 4 * a6
    an = [0, 1] + [0] * (size - 1)
    for n in range(2, size + 1):
        ell = next(d for d in range(2, n + 1) if n % d == 0)
        m, pk = n, 1
        while m % ell == 0:
            m, pk = m // ell, pk * ell
        if m > 1:
            an[n] = an[pk] * an[m]
        elif n > ell:
            an[n] = an[ell] * an[n // ell] - (ell * an[n // (ell * ell)] if ell != p else 0)
        elif ell == 2:
            points = sum(
                (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0 for x in (0, 1) for y in (0, 1)
            )
            an[n] = 2 - points
        else:
            # (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
            roots = [0] * ell
            for w in range(ell):
                roots[w * w % ell] += 1
            an[n] = ell - sum(roots[(4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % ell] for x in range(ell))
    return an


class Curve:
    """phi to enough terms for every tau with Im(tau) >= min_im, and Lambda."""

    def __init__(self, p, ainvs, min_im):
        an = _coefficients(ainvs, p, math.ceil(TERMS / (2 * math.pi * min_im)) + 1)
        self.cn = [0.0] + [an[n] / n for n in range(1, len(an))]
        # g = [[a, b], [p, d]] with a d = 1 (mod p) takes (-d + i)/p to (a + i)/p
        periods = [self.phi(complex(pow(d, -1, p), 1) / p) - self.phi(complex(-d, 1) / p) for d in range(1, p)]
        self.basis = _lattice_basis(periods)

    def phi(self, tau):
        q = cmath.exp(2j * math.pi * tau)
        s = 0
        for n in range(min(len(self.cn) - 1, math.ceil(TERMS / (2 * math.pi * tau.imag))), 0, -1):
            s = (s + self.cn[n]) * q
        return s

    def torsion_order(self, z):
        """The least m <= 24 with m z in Lambda, or None."""
        return next((m for m in range(1, 25) if _in_lattice(m * z, *self.basis)), None)


def _in_lattice(z, w1, w2):
    """Whether z = x w1 + y w2 with x and y integers."""
    det = (w1.conjugate() * w2).imag
    x, y = (z.conjugate() * w2).imag / det, (w1.conjugate() * z).imag / det
    return abs(x - round(x)) < TOL and abs(y - round(y)) < TOL


def _lattice_basis(periods):
    """The shortest period and the shortest remainder not parallel to it,
    checked to span every period over Z.  Some periods vanish, as the one
    of g = [[1, 0], [p, 1]], which fixes the cusp 0."""
    periods = [w for w in periods if abs(w) > TOL]
    w1 = min(periods, key=abs)
    remainders = [w - round((w / w1).real) * w1 for w in periods]
    w2 = min((r for r in remainders if abs((r / w1).imag) > TOL), key=abs)
    assert all(_in_lattice(w, w1, w2) for w in periods), (w1, w2)
    return w1, w2


def _split_discs(p, cap):
    return [d for d in range(-3, -cap, -1) if _fundamental(d) and pow(d % p, (p - 1) // 2, p) == 1]


@functools.cache
def _curve_data(p):
    """The curve at level p and {D: (h_D, P_K)} over the split D."""
    ainvs, cap = CURVES[p]
    points = {d: _heegner_taus(p, d) for d in _split_discs(p, cap)}
    min_im = min([1 / p] + [t.imag for _, taus in points.values() for t in taus])
    curve = Curve(p, ainvs, min_im)
    return curve, {d: (h, sum(curve.phi(t) for t in taus)) for d, (h, taus) in points.items()}


def test_point_counts_are_the_eta_product_at_11():
    # X0(11) is 11a1, whose newform is eta(z)^2 eta(11z)^2
    size = 300
    series = [0, 1] + [0] * (size - 1)  # q * prod (1 - q^n)^2 (1 - q^11n)^2
    for n in range(1, size):
        for step in (n, n, 11 * n, 11 * n):
            for k in range(size, step, -1):
                series[k] -= series[k - step]
    assert _coefficients(CURVES[11][0], 11, size) == series


@pytest.mark.parametrize("p,omega", [(11, 1.2692093042795), (17, 1.5470797535511)])
def test_real_period(p, omega):
    # the least positive real period of the lattice, against Cremona's tables
    curve, _ = _curve_data(p)
    w1, w2 = curve.basis
    real = [x * w1 + y * w2 for x in range(-4, 5) for y in range(-4, 5)]
    assert min(w.real for w in real if abs(w.imag) < TOL and w.real > TOL) == pytest.approx(omega, abs=1e-10)


def _verdicts(p, disc):
    if p == 11:
        canonical = special_function(11), CuspDivisor.from_map(11, {1: 1, 11: -1})
        return [
            descent.verdict_prime_level_odd_q(11, disc, 5),
            descent.verdict_rational_divisor(11, *canonical, disc, 5),
        ]
    if p == 17:
        return [descent.verdict_prime_level_2(17, disc)]
    return [descent.verdict_ns_curve(p, disc)]


# level: (split fundamental D, nontorsion verdicts of each criterion, D with P_K torsion)
COUNTS = {
    11: (421, {"prime_level_odd_q": 339, "rational_divisor": 417}, 3),
    17: (431, {"prime_level_2": 109}, 4),
    73: (228, {"ns_corollary": 59}, 0),
    89: (232, {"ns_corollary": 57}, 1),
    113: (231, {"ns_corollary": 0}, 1),
    233: (226, {"ns_corollary": 61}, 2),
}


@pytest.mark.parametrize("p", sorted(CURVES))
def test_nontorsion_verdicts_have_nontorsion_heegner_points(p):
    curve, pk = _curve_data(p)
    claimed, torsion = dict.fromkeys(COUNTS[p][1], 0), 0
    for disc, (h, z) in pk.items():
        # this file's count of reduced forms is an independent h_K
        assert descent.heegner_setup(p, disc).h_k == h, disc
        assert curve.torsion_order(z + z.conjugate()) is not None, disc
        torsion += curve.torsion_order(z) is not None
        for v in _verdicts(p, disc):
            if v.conclusion == descent.NONTORSION:
                claimed[v.criterion_tag] += 1
                assert curve.torsion_order(z) is None, (disc, v.criterion_tag)
    assert (len(pk), claimed, torsion) == COUNTS[p]


def test_rational_divisor_at_17_claims_nothing():
    # the canonical class at level 17 has order 4, which no prime q coprime
    # to 6 divides, so the general criterion refuses every q
    r, div = special_function(17), CuspDivisor.from_map(17, {1: 1, 17: -1})
    for q in (5, 7, 11, 13):
        with pytest.raises(ValidationError, match="does not divide the class order n = 4"):
            descent.verdict_rational_divisor(17, r, div, -19, q)
