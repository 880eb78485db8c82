"""An oracle of the Selmer rank at p = 7 that uses nothing from K.

A(7) is the CM curve 49a1, which has a rational point of order 2:
E: y^2 = x^3 + a x^2 + b x with a = 21, b = 112, a^2 - 4b = -7.  Its twist
E^d: y^2 = x^3 + 21d x^2 + 112d^2 x is bounded over Q by descent via the
2-isogeny phi: E^d -> E'^d, E'^d: y^2 = x^3 - 42d x^2 - 7d^2 x (Silverman,
*The Arithmetic of Elliptic Curves*, Prop. X.4.9; Cremona, *Algorithms for
Modular Elliptic Curves*, ch. 3).  The phi-Selmer group of
y^2 = x^3 + a x^2 + b x is the set of squarefree d1 | b, taken mod squares,
whose quartic N^2 = d1 M^4 + a M^2 e^2 + (b/d1) e^4 has a point over R and
over every Q_l with l | 2b(a^2 - 4b).  Then

    s = dim S^phi(E^d) + dim S^phihat(E'^d) - 2

bounds the 2-Selmer rank of E^d over Q from above, and exceeds it by an
even number: the part of Sha[phi] and Sha[phihat] that does not come from
Sha[2] (Cassels, *J. reine angew. Math.* 217, 1965).

Hypothesis, not proved here: the dimension dim_F2 = 2 + 2t that `selmer`
computes over K = Q(sqrt(-7)) is 2 dim Sel_2(E^d/Q) = 2 (1 + t).  Over K the
2-Selmer group of E^d splits into those of E^d and E^(-7d) over Q, and
E^(-7d) is 7-isogenous to E^d, so both have 2-Selmer rank t over Q.  Under
it, s >= t and s = t (mod 2) for every twist.

The descent shares no code with `eisq` but the twist list and t: primes come
from sympy, and local solubility is a residue-class search written here.
"""

from sympy import factorint

from eisq.selmer import admissible_twists_between, build_twist, selmer_rank_graph


def _val(z, l):
    k = 0
    while z % l == 0:
        z //= l
        k += 1
    return k


def _is_square(z, l):
    # whether the nonzero integer z is a square in Q_l
    k = _val(z, l)
    u = z // l**k
    if k % 2:
        return False
    return u % 8 == 1 if l == 2 else pow(u, (l - 1) // 2, l) == 1


def _at(coeffs, x):
    # Horner's rule, highest coefficient first
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def _point_in_class(coeffs, l, x0, n):
    """Whether y^2 = g(x) has a point over Q_l with x = x0 (mod l^n), or g a
    root in Z_l.  g(x0 + l^n u) - g(x0) has valuation at least
    min(v(g'(x0)) + n, 2n), so once that passes v(g(x0)) by the precision of
    a square class (1, or 3 at l = 2), the whole class has the class of
    g(x0); otherwise the search goes on in the l subclasses."""
    value = _at(coeffs, x0)
    if value == 0 or _is_square(value, l):
        return True
    deg = len(coeffs) - 1
    slope = _at([c * (deg - i) for i, c in enumerate(coeffs[:-1])], x0)
    lam = _val(value, l)
    reach = 2 * n
    if slope:
        mu = _val(slope, l)
        if lam > 2 * mu:
            return True  # Hensel: g has a root in Z_l
        reach = min(mu + n, reach)
    if reach >= lam + (3 if l == 2 else 1):
        return False
    return any(_point_in_class(coeffs, l, x0 + u * l**n, n + 1) for u in range(l))


def _soluble_at(coeffs, l):
    # x in Z_l, or x = 1/z with z in l Z_l on the reversed quartic
    return _point_in_class(coeffs, l, 0, 0) or _point_in_class(coeffs[::-1], l, 0, 1)


def _phi_selmer_dim(a, b, primes):
    """dim_F2 of the phi-Selmer group of y^2 = x^3 + a x^2 + b x, whose bad
    places are infinity and the given primes."""
    base = [-1] + [l for l in primes if b % l == 0]
    count = 0
    for mask in range(1 << len(base)):
        d1 = 1
        for i, l in enumerate(base):
            if mask >> i & 1:
                d1 *= l
        c = b // d1
        # over R: some u = M^2 >= 0 with d1 u^2 + a u + c >= 0, or e = 0
        real = d1 > 0 or c >= 0 or (a > 0 and a * a >= 4 * d1 * c)
        if real and all(_soluble_at((d1, 0, a, 0, c), l) for l in primes):
            count += 1
    assert count & (count - 1) == 0, (a, b, count)  # a group
    return count.bit_length() - 1


def descent_bound(d):
    """s = dim S^phi(E^d) + dim S^phihat(E'^d) - 2 for the twist of 49a1 by d."""
    primes = sorted({2, 7} | set(factorint(abs(d))))
    a, b = 21 * d, 112 * d * d
    return _phi_selmer_dim(a, b, primes) + _phi_selmer_dim(-2 * a, a * a - 4 * b, primes) - 2


def _t(d):
    return selmer_rank_graph(build_twist(7, d)).t


def test_descent_on_small_curves():
    # 49a1 itself, of rank 0, and its twist by -3, with t = 1
    assert descent_bound(1) == _t(1) == 0
    assert descent_bound(-3) == _t(-3) == 1


def test_descent_bounds_t_over_small_twists():
    checked = equal = 0
    for d in admissible_twists_between(7, -300, 300):
        s, t = descent_bound(d), _t(d)
        assert s >= t and (s - t) % 2 == 0, (d, s, t)
        checked += 1
        equal += s == t
    # one twist has s = t + 2: two dimensions of Sha[phi] the descent cannot see
    assert checked == 107 and equal == 106, (checked, equal)


def test_descent_bounds_t_at_the_widest_goldens():
    # 17 vertices (eight split primes), past the brute force's width 12,
    # where s exceeds t by 4; and 1 + 10 inert primes at width 11
    assert (descent_bound(-2943050537207), _t(-2943050537207)) == (5, 1)
    assert (descent_bound(-13541363267055), _t(-13541363267055)) == (5, 5)
