"""Command-line front end.

Subcommands: classnum, selmer, eta, heegner, eigencheck.  Output formats:
table (default), json, tsv.  All numbers are exact: integers, or rationals
rendered as [numerator, denominator] pairs; no floats anywhere.  JSON is
canonical (sorted keys, compact separators) so equal results are
byte-identical.  Exit codes: 0 ok, 2 validation error, 3 internal
consistency failure, 4 resource cap exceeded.  A reader that closes
stdout early, as `| head` does, ends the command with 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain

from . import classgroup, descent, etacusp, modforms, selmer
from .errors import InternalCheckError, ResourceCapError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3
EXIT_CAP = 4


_INT_ONLY = frozenset((int,))


def _jsonable(obj):
    if isinstance(obj, (list, tuple)):
        # a flat list of exact ints, or a list of rows of them such as the
        # forms of classnum, is passed on as it is after a type scan in C
        kinds = set(map(type, obj))
        if kinds <= _INT_ONLY or (
            all(issubclass(kind, (list, tuple)) for kind in kinds)
            and set(map(type, chain.from_iterable(obj))) <= _INT_ONLY
        ):
            return obj
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, str)) or obj is None:  # bool is an int
        return obj
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, float):
        raise InternalCheckError("floats are not allowed in output")
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    raise InternalCheckError(f"cannot serialize {type(obj)}")


def canonical_json(obj) -> str:
    # _jsonable has walked every container, and a cycle would have recursed
    # without end there, so json need not look for one
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"), check_circular=False)


def _write_tsv_row(row: dict, out):
    """One line of tab-separated values in sorted key order, each a compact JSON value."""
    flat = _jsonable(row)
    out.write("\t".join(json.dumps(flat[k], separators=(",", ":")) for k in sorted(flat)) + "\n")


def _emit(doc: dict, fmt: str, table_lines, out):
    if fmt == "json":
        out.write(canonical_json(doc) + "\n")
    elif fmt == "tsv":
        _write_tsv_row(doc, out)
    else:
        for line in table_lines:
            out.write(line + "\n")


def _int_list(text: str, what: str) -> list[int]:
    """A comma-separated list of integers, or a validation error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad {what} {text!r}, expected comma-separated integers") from None


def _fmt_arg(sub):
    sub.add_argument("--format", choices=("table", "json", "tsv"), default="table")


# --- classnum ---------------------------------------------------------------


def _cmd_classnum(args, out) -> int:
    if args.disc is None and args.p is None:
        raise ValidationError("classnum needs --p or --disc")
    if args.disc is not None and args.p is not None:
        raise ValidationError("classnum takes --p or --disc, not both")
    if args.disc is not None:
        disc, doc, label = args.disc, {"disc": args.disc}, f"disc {args.disc}"
    else:
        disc, doc, label = classgroup.field_disc(args.p), {"p": args.p}, f"p = {args.p}"
    forms = classgroup.reduced_forms(disc)
    doc.update(h=len(forms), forms=forms)  # each form is a tuple, so a JSON array as it is
    lines = []  # one line per form, built only when the table is printed
    if args.format == "table":
        lines = [f"{label}: h = {len(forms)}"] + [f"  ({a},{b},{c})" for a, b, c in forms]
    _emit(doc, args.format, lines, out)
    return EXIT_OK


# --- selmer -----------------------------------------------------------------


def _selmer_row(p: int, d: int, with_oracle: bool) -> dict:
    td = selmer.build_twist(p, d)
    res = selmer.selmer_rank_graph(td)
    row = {
        "p": p,
        "d": d,
        "generators": [label for label, _ in td.alpha_gens],
        "arrows": [[int(b) for b in line] for line in res.graph.arrows],
        "t": res.t,
        "nontrivial_even_partitions": res.nontrivial_even_partitions,
        "rank": res.rank,
        "dim_f2": res.dim_f2,
    }
    if with_oracle:
        oracle_dim = row["oracle_dim_f2"] = selmer.selmer_group_bruteforce(td)
        if oracle_dim != res.dim_f2:
            raise InternalCheckError(
                f"oracle disagrees with graph at p={p}, d={d}: "
                f"{oracle_dim} vs {res.dim_f2}"
            )
        row["oracle_agrees"] = True
    return row


def _cmd_selmer(args, out) -> int:
    with_oracle = args.oracle
    if args.d is not None and args.d_range is not None:
        raise ValidationError("selmer takes --d or --d-range, not both")
    if args.d_range:
        try:
            lo, hi = (int(x) for x in args.d_range.split(".."))
        except ValueError:
            raise ValidationError(f"bad range {args.d_range!r}, expected LO..HI")
        if lo > hi:
            raise ValidationError(f"empty range {args.d_range!r}: LO exceeds HI")
        rows = []
        for d in selmer.admissible_twists_between(args.p, lo, hi):
            row = _selmer_row(args.p, d, with_oracle)
            if args.format == "tsv":
                # streamed, one summary row per twist as it is computed
                keys = ("p", "d", "t", "rank", "dim_f2", "oracle_dim_f2")
                _write_tsv_row({k: row[k] for k in keys if k in row}, out)
                out.flush()
            else:
                rows.append(row)
        if args.format == "tsv":
            return EXIT_OK
        doc = {"rows": rows}
        lines = [
            f"p={r['p']} d={r['d']}: rank {r['rank']} (t={r['t']}, dim {r['dim_f2']})"
            for r in rows
        ]
        _emit(doc, args.format, lines, out)
        return EXIT_OK
    if args.d is None:
        raise ValidationError("selmer needs --d or --d-range")
    row = _selmer_row(args.p, args.d, with_oracle)
    lines = [
        f"p = {row['p']}, d = {row['d']}",
        f"generators: {' '.join(row['generators'])}",
        "arrows:",
    ]
    for label, arrow_row in zip(row["generators"], row["arrows"]):
        lines.append(f"  {label:>12} -> {' '.join(str(x) for x in arrow_row)}")
    lines.append(
        f"t = {row['t']} (nontrivial even partitions: {row['nontrivial_even_partitions']})"
    )
    lines.append(f"rank = {row['rank']}, dim_F2 = {row['dim_f2']}")
    if with_oracle:
        lines.append(f"oracle dim_F2 = {row['oracle_dim_f2']} (agrees)")
    _emit(row, args.format, lines, out)
    return EXIT_OK


# --- eta --------------------------------------------------------------------


def _parse_exponents(n: int, text: str) -> dict[int, int]:
    divs = etacusp.divisors(n)
    parts = _int_list(text, "exponents")
    if len(parts) != len(divs):
        raise ValidationError(
            f"level {n} has {len(divs)} divisors {divs}; got {len(parts)} exponents"
        )
    return dict(zip(divs, parts))


def _cmd_eta(args, out) -> int:
    n = args.N
    if args.special and args.r is not None:
        raise ValidationError("eta takes --r or --special, not both")
    if args.special:
        r = etacusp.special_function(n)
    elif args.r is not None:
        r = _parse_exponents(n, args.r)
    else:
        raise ValidationError("eta needs --r or --special")
    report = etacusp.ligozat_check(n, r)
    image = etacusp.eta_divisor(n, r)
    divs = image.divisors()
    exponents = [r.get(d, 0) for d in divs]
    doc = {
        "level": n,
        "exponents": exponents,
        "divisors": divs,
        "ligozat": {**vars(report), "ok": report.ok},  # its four bool fields
        "divisor": {str(d): image.coeff(d) for d in divs},
    }
    base = None
    if report.ok and image.den == 1 and any(image.nums):
        base = _primitive_part(image)
        doc["class_order"] = etacusp.cuspidal_class_order(n, base)
        doc["primitive_divisor"] = {str(d): base.coeff(d) for d in divs}
    lines = []  # built only when the table is printed
    if args.format == "table":
        lines = [
            f"level {n}, exponents {exponents} on divisors {divs}",
            f"rationality: sum_zero={report.sum_zero} weighted_mod24={report.weighted_mod24} "
            f"dual_mod24={report.dual_mod24} square_product={report.square_product} -> ok={report.ok}",
            f"divisor: {image}",
        ]
        if base is not None:
            lines.append(f"primitive divisor {base} has class order {doc['class_order']}")
    _emit(doc, args.format, lines, out)
    return EXIT_OK


def _primitive_part(div: etacusp.CuspDivisor) -> etacusp.CuspDivisor:
    vec = div.int_vector()
    return etacusp.CuspDivisor(div.level, vec, math.gcd(*vec))


# --- heegner ----------------------------------------------------------------


def _verdict_doc(v: descent.Verdict) -> dict:
    return {
        "criterion": v.criterion_tag,
        "conclusion": v.conclusion,
        "trace": [vars(t) for t in v.trace],  # each entry's four fields
    }


def _verdict_lines(v: descent.Verdict) -> list[str]:
    lines = [f"[{v.criterion_tag}] conclusion: {v.conclusion.upper()}"]
    for t in v.trace:
        mark = "ok" if t.passed else "FAIL"
        star = " (assumed)" if t.assumed else ""
        lines.append(f"  {mark:>4}  {t.name}: {t.value}{star}")
    if v.conclusion == descent.INCONCLUSIVE:
        lines.append("  note: inconclusive does not mean torsion; the criterion is one-way")
    return lines


def _cmd_heegner(args, out) -> int:
    given = [flag for flag, value in (("--p", args.p), ("--p2", args.p2), ("--ns", args.ns)) if value is not None]
    if len(given) > 1:
        raise ValidationError(f"heegner takes one of --p, --p2, --ns, got {' and '.join(given)}")
    if args.ns is not None and args.q is not None:
        raise ValidationError("heegner --ns takes no --q")
    if args.ns is not None:
        p = args.ns
        ns = descent.neumann_setzer(p)
        doc = {"p": p, **vars(ns)}  # the report's four fields
        v = None if args.K is None else descent.verdict_ns_curve(p, args.K)
        if v is not None:
            doc["verdict"] = _verdict_doc(v)
        lines = []  # built only when the table is printed
        if args.format == "table":
            found = f", u = {ns.u}, u mod 8 = {ns.u_mod_8}, simple: {ns.two_eisenstein_simple}"
            lines = [f"p = {p}: u^2 + 64 form: {ns.is_ns_prime}" + (found if ns.is_ns_prime else "")]
            lines += [] if v is None else _verdict_lines(v)
        _emit(doc, args.format, lines, out)
        return EXIT_OK
    if args.p2 is not None:
        if args.K is None or args.q is None:
            raise ValidationError("heegner --p2 needs --K and --q")
        v = descent.verdict_p2_level(args.p2, args.K, args.q)
    elif args.p is not None:
        if args.K is None:
            raise ValidationError("heegner --p needs --K")
        if args.q == 2:
            v = descent.verdict_prime_level_2(args.p, args.K)
        elif args.q is not None:
            v = descent.verdict_prime_level_odd_q(args.p, args.K, args.q)
        else:
            raise ValidationError("heegner --p needs --q")
    else:
        raise ValidationError("heegner needs one of --p, --p2, --ns")
    _emit(_verdict_doc(v), args.format, _verdict_lines(v) if args.format == "table" else [], out)
    return EXIT_OK


# --- eigencheck -------------------------------------------------------------


def _cmd_eigencheck(args, out) -> int:
    primes = None if args.primes is None else _int_list(args.primes, "primes")
    report = modforms.eisenstein_eigencheck(args.p, args.prec, primes)
    doc = {
        "p": report.p,
        "prec": report.prec,
        "results": [
            {
                "ell": r.ell,
                "operator": r.operator,
                "status": r.status,
                "retained_coefficients": r.retained,
                "first_discrepancy": r.first_discrepancy,
            }
            for r in report.results
        ],
        "ok": report.ok,
    }
    lines = []  # built only when the table is printed
    if args.format == "table":
        lines = [f"p = {report.p}, precision {report.prec}"]
        for r in report.results:
            extra = f" (first discrepancy at {r.first_discrepancy})" if r.status == "fail" else ""
            lines.append(f"  {r.operator}_{r.ell}: {r.status} [{r.retained} coefficients]{extra}")
        if report.insufficient:
            lines.append(f"warning: insufficient precision for ell in {list(report.insufficient)}")
        lines.append("all pass" if report.ok else "NOT all pass")
    _emit(doc, args.format, lines, out)
    return EXIT_OK if report.ok else EXIT_INTERNAL


# --- driver -----------------------------------------------------------------


def _merge_dash_values(argv: list[str]) -> list[str]:
    # let range values like "-199..199" follow their flag without being
    # mistaken for an option
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--d-range" and i + 1 < len(argv):
            out.append(f"--d-range={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


# the parser of each subcommand by name, filled once by `build_parser`
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; every call returns that one
    object, which `main` reuses, so callers must not modify it.  Its
    subcommands' parsers are kept in `_COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="eisq",
        description="Exact computations for 2-Selmer ranks of CM twists, "
        "eta-products and cuspidal divisors, Hecke eigenchecks, and Heegner "
        "point verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classnum", help="class number and reduced forms")
    c.add_argument("--p", type=int, help="prime p = 3 mod 4, field Q(sqrt(-p))")
    c.add_argument("--disc", type=int, help="negative discriminant (alternative to --p)")
    _fmt_arg(c)
    c.set_defaults(func=_cmd_classnum)

    s = sub.add_parser("selmer", help="2-Selmer rank of a quadratic twist")
    s.add_argument("--p", type=int, required=True, help="prime p = 7 mod 8")
    s.add_argument("--d", type=int, help="twist parameter, squarefree, 1 mod 4")
    s.add_argument("--d-range", dest="d_range", help="sweep range LO..HI")
    s.add_argument("--oracle", action="store_true", help="run the brute-force oracle too")
    _fmt_arg(s)
    s.set_defaults(func=_cmd_selmer)

    e = sub.add_parser("eta", help="eta-product rationality, divisor, class order")
    e.add_argument("--N", type=int, required=True, help="level p or p^2")
    e.add_argument("--r", help="comma-separated exponents, ascending divisors")
    e.add_argument("--special", action="store_true", help="use the canonical eta-product")
    _fmt_arg(e)
    e.set_defaults(func=_cmd_eta)

    h = sub.add_parser("heegner", help="Heegner point verdicts")
    h.add_argument("--p", type=int, help="prime level")
    h.add_argument("--p2", type=int, help="prime p for level p^2")
    h.add_argument("--ns", type=int, help="Neumann-Setzer report for this prime")
    h.add_argument("--K", type=int, help="negative fundamental discriminant of K")
    h.add_argument("--q", type=int, help="Eisenstein prime q")
    _fmt_arg(h)
    h.set_defaults(func=_cmd_heegner)

    g = sub.add_parser("eigencheck", help="Hecke eigenform check for the Eisenstein series")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--prec", type=int, default=200)
    g.add_argument("--primes", help="comma-separated Hecke primes (default: up to 13)")
    _fmt_arg(g)
    g.set_defaults(func=_cmd_eigencheck)
    _COMMANDS.update(classnum=c, selmer=s, eta=e, heegner=h, eigencheck=g)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_dash_values(list(argv))
    # a known subcommand's options go straight to its own parser; the top
    # parser sees only what it answers itself: help, no argv, an unknown command
    command = _COMMANDS.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading: point stdout at the null device so the
        # interpreter's last flush of what is still buffered cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
