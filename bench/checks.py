"""Independent checks of eisq outputs.

Nothing here imports eisq: every expected value is recomputed from the
definitions (Euler's criterion, F2 linear algebra, the analytic class
number formula, closed forms for cuspidal orders) or is a property the
method must have.  Each checker returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math

SELMER_FIELDS = ("generators", "arrows", "t", "rank", "dim_f2")
EIGEN_PRIMES = (2, 3, 5, 7, 11, 13)
EIGEN_MIN_RETAINED = 15


# --- integer helpers ---------------------------------------------------------


def sieve(limit: int) -> list[int]:
    """All primes below limit."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


def splits(p: int, q: int) -> bool:
    """Whether the odd prime q (q != p) splits in Q(sqrt(-p)): Euler's criterion."""
    return pow(-p % q, (q - 1) // 2, q) == 1


def disc_splits(disc: int, p: int) -> bool:
    """Whether the odd prime p (not dividing disc) splits in the field of disc."""
    return pow(disc % p, (p - 1) // 2, p) == 1


def jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(disc: int, n: int) -> int:
    """Kronecker symbol (disc/n) for a discriminant disc and n >= 1."""
    e = (n & -n).bit_length() - 1
    m = n >> e
    sym = jacobi(disc, m) if m > 1 else 1
    if e:
        if disc % 2 == 0:
            return 0
        if disc % 8 in (3, 5) and e % 2:
            sym = -sym
    return sym


def valuation(n: int, q: int) -> int:
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def is_squarefree(n: int, primes: list[int]) -> bool:
    """Squarefree test for 1 <= n <= primes[-1]**2."""
    for q in primes:
        if q * q > n:
            return True
        if n % (q * q) == 0:
            return False
    return True


def is_fundamental(disc: int, primes: list[int]) -> bool:
    if disc >= 0:
        return False
    if disc % 4 == 1:
        return is_squarefree(-disc, primes)
    if disc % 4 == 0:
        m = disc // 4
        return m % 4 in (2, 3) and is_squarefree(-m, primes)
    return False


def class_number(disc: int) -> int:
    """h(disc) of a negative fundamental discriminant, from the analytic
    class number formula in its exponentially convergent form:

        h = (w/2) * sum_n chi(n) * (erfc(n sqrt(pi/|D|)) + sqrt(|D|)/(pi n) exp(-pi n^2/|D|))

    with chi = (disc/.), summed while n sqrt(pi/|D|) <= 6.5, past which the
    terms are below 1e-17."""
    if disc in (-3, -4):
        return 1
    a = -disc
    scale = math.sqrt(math.pi / a)
    root = math.sqrt(a)
    total = 0.0
    n = 1
    while True:
        x = n * scale
        if x > 6.5:
            break
        chi = kronecker(disc, n)
        if chi:
            total += chi * (math.erfc(x) + root / (math.pi * n) * math.exp(-x * x))
        n += 1
    h = round(total)
    if h < 1 or abs(total - h) > 1e-3:
        raise ArithmeticError(f"class number series for {disc} did not settle: {total}")
    return h


def class_number_bruteforce(disc: int) -> int:
    """h(disc) = -(w/(2|D|)) * sum_{a<|D|} chi(a) a, the finite analytic formula."""
    w = {-3: 6, -4: 4}.get(disc, 2)
    a = -disc
    s = sum(kronecker(disc, k) * k for k in range(1, a))
    return -w * s // (2 * a)


# --- F2 linear algebra --------------------------------------------------------


def f2_rank(rows: list[int]) -> int:
    """Rank over F2 of bitmask row vectors."""
    basis: list[int] = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def laplacian_corank(arrows: list[list[int]]) -> int:
    """F2-corank of A^T + diag(in-degree) for the arrow matrix A.

    A vertex subset S is even exactly when its indicator lies in the kernel:
    for y in S the arrows into y from outside S number indeg(y) minus those
    from S, and for y outside S they are the arrows from S."""
    n = len(arrows)
    rows = []
    for y in range(n):
        mask = 0
        indeg = 0
        for x in range(n):
            if arrows[x][y]:
                mask |= 1 << x
                indeg += 1
        if indeg & 1:
            mask ^= 1 << y
        rows.append(mask)
    return n - f2_rank(rows)


def even_subsets_bruteforce(arrows: list[list[int]]) -> int:
    """Number of even vertex subsets, by testing all 2^n subsets."""
    n = len(arrows)
    count = 0
    for s in range(1 << n):
        ok = True
        for y in range(n):
            inside = (s >> y) & 1
            odd = 0
            for x in range(n):
                if arrows[x][y] and ((s >> x) & 1) != inside:
                    odd ^= 1
            if odd:
                ok = False
                break
        count += ok
    return count


# --- per-output checks ----------------------------------------------------------


def check_selmer(row: dict, p: int, d: int, split: list[int], inert: list[int], oracle: bool) -> list[str]:
    errs = []
    for key in SELMER_FIELDS:
        if key not in row:
            return [f"selmer p={p} d={d}: missing {key}"]
    if row.get("p") != p or row.get("d") != d:
        errs.append(f"selmer p={p} d={d}: echoed {row.get('p')}, {row.get('d')}")
    width = 1 + 2 * len(split) + len(inert)
    arrows = row["arrows"]
    if len(row["generators"]) != width or len(arrows) != width:
        errs.append(f"selmer p={p} d={d}: {len(row['generators'])} generators, expected {width}")
        return errs
    if any(len(r) != width or any(x not in (0, 1) for x in r) for r in arrows):
        return errs + [f"selmer p={p} d={d}: arrow matrix is not a {width}x{width} 0/1 matrix"]
    if any(arrows[i][i] for i in range(width)):
        errs.append(f"selmer p={p} d={d}: loop in the graph")
    t = laplacian_corank(arrows) - 1
    if row["t"] != t:
        errs.append(f"selmer p={p} d={d}: t = {row['t']}, Laplacian corank gives {t}")
    if row["rank"] != 1 + 2 * row["t"] or row["dim_f2"] != 2 + 2 * row["t"]:
        errs.append(f"selmer p={p} d={d}: rank {row['rank']}, dim {row['dim_f2']} for t = {row['t']}")
    if oracle:
        if row.get("oracle_dim_f2") != row["dim_f2"] or row.get("oracle_agrees") is not True:
            errs.append(f"selmer p={p} d={d}: oracle dim {row.get('oracle_dim_f2')} vs {row['dim_f2']}")
    elif "oracle_dim_f2" in row:
        errs.append(f"selmer p={p} d={d}: oracle ran although not asked")
    if not split and (row["rank"] == 1) != all(q % 4 == 1 for q in inert):
        errs.append(f"selmer p={p} d={d}: inert-only rank {row['rank']} breaks minimality")
    return errs


def prime_level_order(p: int) -> int:
    return (p - 1) // math.gcd(p - 1, 12)


def p2_level_order(p: int) -> int:
    return (p * p - 1) // 24


def check_eta(doc: dict, p: int, k: int) -> list[str]:
    n = p**k
    divs = [p**i for i in range(k + 1)]
    order = prime_level_order(p) if k == 1 else p2_level_order(p)
    errs = []
    if doc.get("level") != n or doc.get("divisors") != divs:
        errs.append(f"eta N={n}: level/divisors {doc.get('level')}, {doc.get('divisors')}")
    if doc.get("ligozat", {}).get("ok") is not True:
        errs.append(f"eta N={n}: special eta-product fails the rationality conditions")
    if doc.get("class_order") != order:
        errs.append(f"eta N={n}: class order {doc.get('class_order')}, expected {order}")
    return errs


def cyclic_sum_invariants(a: int, b: int) -> tuple[int, ...]:
    """Invariant factors of Z/a + Z/b, units dropped."""
    g = math.gcd(a, b)
    return tuple(x for x in (g, a * b // g) if x != 1)


def check_cuspidal(invariants: tuple[int, ...], p: int) -> list[str]:
    expected = cyclic_sum_invariants(prime_level_order(p), p2_level_order(p))
    if tuple(invariants) != expected:
        return [f"cuspidal group at {p}^2: {tuple(invariants)}, expected {expected}"]
    return []


def check_classnum(doc: dict, disc: int, h: int) -> list[str]:
    errs = []
    if doc.get("disc") != disc:
        errs.append(f"classnum {disc}: echoed {doc.get('disc')}")
    if doc.get("h") != h:
        errs.append(f"classnum {disc}: h = {doc.get('h')}, class number formula gives {h}")
    forms = doc.get("forms", [])
    if len(forms) != doc.get("h"):
        errs.append(f"classnum {disc}: {len(forms)} forms for h = {doc.get('h')}")
    for a, b, c in forms:
        if b * b - 4 * a * c != disc or not (-a < b <= a <= c) or (b < 0 and a == c):
            errs.append(f"classnum {disc}: ({a},{b},{c}) is not a reduced form")
            break
    return errs


def _trace_consistent(doc: dict, tag: str) -> list[str]:
    errs = []
    if doc.get("criterion") != tag:
        errs.append(f"criterion {doc.get('criterion')}, expected {tag}")
    passed = all(t["passed"] for t in doc.get("trace", []))
    if (doc.get("conclusion") == "nontorsion") != passed:
        errs.append(f"conclusion {doc.get('conclusion')} contradicts its trace")
    return errs


def _trace_entry(doc: dict, name: str):
    for t in doc.get("trace", []):
        if t["name"] == name:
            return t
    return None


def check_heegner_p(doc: dict, p: int, disc: int, q: int, h: int) -> list[str]:
    """heegner --p: the verdict depends only on h_K, splitting and valuations."""
    n = prime_level_order(p)
    split = disc_splits(disc, p)
    if q == 2:
        tag, expect = "prime_level_2", split and h % 2 == 1
    else:
        tag, expect = "prime_level_odd_q", split and valuation(h, q) < valuation(n, q)
    errs = _trace_consistent(doc, tag)
    want = "nontorsion" if expect else "inconclusive"
    if doc.get("conclusion") != want:
        errs.append(f"heegner --p {p} --K {disc} --q {q}: {doc.get('conclusion')}, expected {want}")
    return errs


def check_split_verdict(doc: dict, tag: str, split_entry: str, p: int, disc: int, q: int, h: int) -> list[str]:
    """Level-p^2 verdicts also depend on a class order; recompute what does
    not: splitting, and the implication v_q(h_K) < v_q(n) => nontorsion."""
    errs = _trace_consistent(doc, tag)
    split = disc_splits(disc, p)
    entry = _trace_entry(doc, split_entry)
    if entry is None or entry["passed"] != split:
        errs.append(f"{tag} p={p} K={disc}: splitting entry {entry}, expected {split}")
    if split and valuation(h, q) < valuation(p2_level_order(p), q) and doc.get("conclusion") != "nontorsion":
        errs.append(f"{tag} p={p} K={disc} q={q}: v_q(h_K) < v_q(n) but {doc.get('conclusion')}")
    return errs


def check_heegner_p2(doc: dict, p: int, disc: int, q: int, h: int) -> list[str]:
    return check_split_verdict(doc, "p2_level", f"{p} splits in K", p, disc, q, h)


def check_rational_divisor(doc: dict, p: int, disc: int, q: int, h: int) -> list[str]:
    errs = check_split_verdict(doc, "rational_divisor", "Heegner hypothesis", p, disc, q, h)
    entry = _trace_entry(doc, "n*D = div(eta-product)")
    if entry is None or entry["value"] != f"n = {p2_level_order(p)}":
        errs.append(f"rational_divisor p={p}: order entry {entry}, expected n = {p2_level_order(p)}")
    return errs


def check_eigencheck(doc: dict, p: int, prec: int) -> list[str]:
    expected = {(ell, "T") for ell in EIGEN_PRIMES if ell != p} | {(p, "U")}
    got = {(r["ell"], r["operator"]): r for r in doc.get("results", [])}
    errs = []
    if set(got) != expected:
        errs.append(f"eigencheck p={p}: operators {sorted(got)}, expected {sorted(expected)}")
    for (ell, op), r in got.items():
        retained = prec // ell
        status = "insufficient_precision" if retained < EIGEN_MIN_RETAINED else "pass"
        if r["status"] != status or r["retained_coefficients"] != retained:
            errs.append(f"eigencheck p={p}: {op}_{ell} {r['status']} [{r['retained_coefficients']}]")
    if doc.get("ok") is not True:
        errs.append(f"eigencheck p={p}: not ok")
    return errs
