"""A catalogue of mutations of the checks in `src/eisq`, each with the test
expected to catch it, and a runner that re-runs them.

    python tests/mutations.py [NAME ...]

For each entry (all of them, or the named ones) the runner copies `src`,
`tests` and `pyproject.toml` to a temporary directory, replaces the
entry's old text by its new text there, and runs the expected test.  If
that test passes, it runs the tier-1 suite with `-x`.  It prints one JSON
line per entry: its name, `killed` or `survived` (or `error`, when pytest
could not run), the stage that killed it (`expected` or `tier-1`), the
first failing test and the seconds taken; then `killed k of m`.  It
exits 1 unless every entry was killed.

The file has no `test_` prefix, so pytest does not collect it;
`tests/test_mutations.py` checks in tier 1 that each old text occurs
exactly once in its file, so a change that moves a check must move its
entry too.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killer: str  # the pytest node id expected to fail


CATALOGUE = (
    # the class order checks the divisor of its eta-product on integer numerators
    Mutation(
        "class-order-divisor-check-dropped",
        "src/eisq/etacusp.py",
        "    if _eta_numerators(divs, r) != [24 * n * order * a for a in vec]:\n",
        "    if False:\n",
        "tests/test_etacusp.py::test_divisor_checks_build_no_divisor",
    ),
    Mutation(
        "class-order-divisor-check-without-order",
        "src/eisq/etacusp.py",
        "[24 * n * order * a for a in vec]",
        "[24 * n * a for a in vec]",
        "tests/test_acceptance.py::test_criterion_08_cuspidal_orders",
    ),
    Mutation(
        "class-order-degree-check-dropped",
        "src/eisq/etacusp.py",
        "    if div.degree() != 0:\n",
        "    if False:\n",
        "tests/test_etacusp.py::test_cuspidal_class_order_validation",
    ),
    # `special_function` checks the canonical product's divisor against the
    # closed form, on every call: up to scale only, as when the denominator
    # went unchecked, or at the first cusp only
    Mutation(
        "closed-form-check-without-denominator",
        "src/eisq/etacusp.py",
        "    if _eta_numerators(divs, r) != [24 * n * a for a in expected]:\n",
        "    if (nums := _eta_numerators(divs, r)) != [nums[-1] // expected[-1] * a for a in expected]:\n",
        "tests/test_etacusp.py::test_is_special",
    ),
    Mutation(
        "closed-form-check-one-coefficient",
        "src/eisq/etacusp.py",
        "    if _eta_numerators(divs, r) != [24 * n * a for a in expected]:\n",
        "    if _eta_numerators(divs, r)[:1] != [24 * n * a for a in expected[:1]]:\n",
        "tests/test_etacusp.py::test_is_special",
    ),
    # the general verdict's eta-product: r must be the class order's, and
    # its prime exponent even
    Mutation(
        "rational-divisor-r-check-dropped",
        "src/eisq/etacusp.py",
        "    if _validated_exponents(divs, r) != r_div:\n",
        "    if _validated_exponents(divs, r) is None:\n",
        "tests/test_descent.py::test_rational_divisor_reads_r_off_the_class_order",
    ),
    Mutation(
        "odd-prime-exponent-check-dropped",
        "src/eisq/etacusp.py",
        "    if e % 2:\n",
        "    if False:\n",
        "tests/test_descent.py::test_rational_divisor_rejects_an_odd_prime_exponent",
    ),
    # the one decision of a level's shape, and the entry count it sets
    Mutation(
        "shape-square-test-dropped",
        "src/eisq/etacusp.py",
        "[1, root, n] if n > 0 and root * root == n else [1, n]",
        "[1, root, n] if n > 0 else [1, n]",
        "tests/test_etacusp.py::test_divisors_and_cusp_count_against_trial_division",
    ),
    Mutation(
        "shape-positive-test-dropped",
        "src/eisq/etacusp.py",
        "[1, root, n] if n > 0 and root * root == n else [1, n]",
        "[1, root, n] if root * root == n else [1, n]",
        "tests/test_etacusp.py::test_divisor_representation",
    ),
    Mutation(
        "divisor-entry-count-check-one-sided",
        "src/eisq/etacusp.py",
        "if len(self.nums) != (size := len(_shape(self.level))):",
        "if len(self.nums) > (size := len(_shape(self.level))):",
        "tests/test_etacusp.py::test_divisor_representation",
    ),
    # `prime_form` at a split q: a root must come back, of D's parity, and give an integral c
    Mutation(
        "prime-form-no-root-check-dropped",
        "src/eisq/classgroup.py",
        "    if not roots:\n        raise InternalCheckError(f\"no square root of {disc} mod the split prime {q}\")\n",
        "    if roots is None:\n        raise InternalCheckError(f\"no square root of {disc} mod the split prime {q}\")\n",
        "tests/test_classgroup.py::test_prime_form_checks_its_root",
    ),
    Mutation(
        "prime-form-root-check-dropped",
        "src/eisq/classgroup.py",
        "    if rem:\n        raise InternalCheckError(f\"{b}^2 - ({disc}) is not divisible by 4*{q}\")\n",
        "    if False:\n        raise InternalCheckError(f\"{b}^2 - ({disc}) is not divisible by 4*{q}\")\n",
        "tests/test_classgroup.py::test_prime_form_checks_its_root",
    ),
    Mutation(
        "prime-form-parity-step-dropped",
        "src/eisq/classgroup.py",
        "    if (b - disc) % 2:\n        b = q - b\n",
        "    if False:\n        b = q - b\n",
        "tests/test_classgroup.py::test_prime_form_norm_compatibility",
    ),
    # `_omega_roots`: a root of -p mod a split q, and two distinct roots of w
    Mutation(
        "omega-roots-no-root-check-dropped",
        "src/eisq/quadfield.py",
        "    if not roots:\n        raise InternalCheckError(f\"no square root of -{ctx.p} mod the split prime {q}\")\n",
        "    if roots is None:\n        raise InternalCheckError(f\"no square root of -{ctx.p} mod the split prime {q}\")\n",
        "tests/test_quadfield.py::test_omega_roots_check_their_root",
    ),
    Mutation(
        "omega-roots-conjugate-pair-check-weakened",
        "src/eisq/quadfield.py",
        "    if (r1 + r2) % q != 1 or r1 == r2:\n",
        "    if (r1 + r2) % q != 1:\n",
        "tests/test_quadfield.py::test_omega_roots_check_their_root",
    ),
    # the order of a prime class and its memo
    Mutation(
        "prime-power-order-returns-ord-P",
        "src/eisq/descent.py",
        "        return o // math.gcd(o, k)\n",
        "        return o\n",
        "tests/test_descent.py::test_prime_power_order_against_powering",
    ),
    Mutation(
        "prime-class-memo-ignores-its-h",
        "src/eisq/descent.py",
        "    return classgroup.class_order(classgroup.prime_form(k_disc, p), h_k)\n",
        "    return classgroup.class_order(classgroup.prime_form(k_disc, p), classgroup.fundamental_class_number(k_disc))\n",
        "tests/test_memos.py::test_prime_class_order_keys_on_the_class_number",
    ),
    # a defect that the class-number count and the form enumeration share,
    # so that they still agree: wrong roots at the primes past 10^4, which
    # only |D| > 3*10^8 reaches
    Mutation(
        "shared-root-table-wrong-past-10-4",
        "src/eisq/classgroup.py",
        "odd[ell] = [x, ell - x] if x * x % ell == d else []",
        "odd[ell] = [x, ell - x] if x * x % ell == d or ell > 10**4 else []",
        "tests/test_class_number_series.py::test_count_against_series_near_the_cap[-999999991]",
    ),
    # the Neumann-Setzer corollary claims only at u = +-3 (mod 8)
    Mutation(
        "ns-corollary-at-u-7-mod-8",
        "src/eisq/descent.py",
        "u % 8 in (3, 5)",
        "u % 8 in (3, 5, 7)",
        "tests/test_heegner_points.py::test_nontorsion_verdicts_have_nontorsion_heegner_points[113]",
    ),
    # Selmer: the second shape's corank against the first, and the
    # minimality criterion on twists without a split prime
    Mutation(
        "selmer-second-shape-check-dropped",
        "src/eisq/selmer.py",
        "    if second != first:\n",
        "    if False:\n",
        "tests/test_selmer.py::test_kernel_off_by_one_exits_3",
    ),
    Mutation(
        "selmer-minimality-check-dropped",
        "src/eisq/selmer.py",
        "    if rank < bound or (rank == 1) != (bound == 1):\n",
        "    if False:\n",
        "tests/test_selmer.py::test_thmm_examples",
    ),
    # the cuspidal invariants against Ling's closed form, and an eta
    # divisor of weight 0 against the valence formula's degree 0
    Mutation(
        "ling-invariants-check-dropped",
        "src/eisq/etacusp.py",
        "    if inv != tuple(d for d in (n_p, n_p2) if d != 1):\n",
        "    if False:\n",
        "tests/test_etacusp.py::test_cuspidal_invariants_against_ling",
    ),
    Mutation(
        "eta-divisor-degree-check-dropped",
        "src/eisq/etacusp.py",
        "    if sum(r.values()) == 0 and (total := ",
        "    if False and (total := ",
        "tests/test_etacusp.py::test_eta_divisor_degree_check_raises",
    ),
    # the identity e(pz) = e(z) + 24 delta that every delta series is checked by
    Mutation(
        "delta-identity-check-dropped",
        "src/eisq/modforms.py",
        "    if bad:\n",
        "    if False:\n",
        "tests/test_modforms.py::test_delta_identity_names_first_bad_index",
    ),
    # a class order must divide the h it is given: one more power of l
    # than h holds is let through
    Mutation(
        "class-order-one-power-beyond-h",
        "src/eisq/classgroup.py",
        "            if e == 0:\n",
        "            if e < 0:\n",
        "tests/test_classgroup.py::test_class_order_rejects_a_non_multiple_of_the_order",
    ),
    # the CLI's output holds no float, and of each option group exactly one
    Mutation(
        "jsonable-passes-floats",
        "src/eisq/cli.py",
        "    if isinstance(obj, (int, str)) or obj is None:",
        "    if isinstance(obj, (int, str, float)) or obj is None:",
        "tests/test_cli.py::test_jsonable_nested_values",
    ),
    Mutation(
        "option-group-takes-the-first-of-two",
        "src/eisq/cli.py",
        "    if len(given) == 1:\n        return given[0]\n",
        "    if given:\n        return given[0]\n",
        "tests/test_cli.py::test_option_group_messages",
    ),
)


def _pytest(cwd: Path, args: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout


def _first_failure(output: str) -> str | None:
    # a parametrized test's id may hold spaces; its reason follows " - "
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)
    return found.group(1) if found else None


def run(m: Mutation) -> dict:
    """Apply m to a temporary copy of the checkout and run its tests."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="eisq-mutation-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / m.file
        text = target.read_text()
        if text.count(m.old) != 1:
            raise SystemExit(f"{m.name}: the old text occurs {text.count(m.old)} times in {m.file}")
        target.write_text(text.replace(m.old, m.new))
        result = {"name": m.name, "status": "survived", "stage": None, "failed": None}
        for stage, args in (("expected", [m.killer]), ("tier-1", ["--continue-on-collection-errors"])):
            code, output = _pytest(work, args)
            if code == 1:  # some test failed
                result.update(status="killed", stage=stage, failed=_first_failure(output))
                break
            if code != 0:
                result.update(status="error", stage=stage, failed=f"pytest exit {code}")
                break
    result["seconds"] = round(time.perf_counter() - start, 1)
    return result


def main(names: list[str]) -> int:
    known = {m.name: m for m in CATALOGUE}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(f"unknown mutations: {', '.join(unknown)}")
    chosen = [known[name] for name in names] if names else list(CATALOGUE)
    killed = 0
    for m in chosen:
        result = run(m)
        killed += result["status"] == "killed"
        print(json.dumps(result, sort_keys=True), flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
