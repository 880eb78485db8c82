"""Tests of the benchmark's own checkers, inputs and tracer.

    python3 -m pytest bench -q

The checkers must accept what eisq prints today and reject a deliberately
wrong answer; the corank check is compared with brute force.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from eisq import classgroup, cli, descent, etacusp  # noqa: E402

SMALL_PRIMES = checks.sieve(4000)


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv) + ["--format", "json"]) == 0
    return json.loads(buf.getvalue())


def test_laplacian_corank_matches_even_subsets():
    rng = random.Random(7)
    for _ in range(600):
        n = rng.randint(1, 10)
        density = rng.random()
        arrows = [[int(i != j and rng.random() < density) for j in range(n)] for i in range(n)]
        assert 2 ** checks.laplacian_corank(arrows) == checks.even_subsets_bruteforce(arrows)


def test_class_number_series_matches_finite_formula():
    discs = [d for d in range(-3, -4000, -1) if checks.is_fundamental(d, SMALL_PRIMES)]
    assert len(discs) > 1000
    for d in discs:
        assert checks.class_number(d) == checks.class_number_bruteforce(d), d


def test_class_number_series_at_large_discriminants():
    primes = checks.sieve(3200)
    rng = random.Random(3)
    for e in (5, 6):
        d = -rng.randrange(10**e, 10 ** (e + 1))
        while not checks.is_fundamental(d, primes):
            d -= 1
        assert checks.class_number(d) == len(classgroup.reduced_forms(d)), d


def test_kronecker_at_two():
    assert [checks.kronecker(-7, 2), checks.kronecker(-3, 2), checks.kronecker(-4, 2)] == [1, -1, 0]
    assert checks.kronecker(-7, 8) == 1 and checks.kronecker(-3, 4) == 1


def test_splitting_matches_euler():
    assert checks.splits(7, 11) is True  # -7 = 4 mod 11 is a square
    assert checks.splits(7, 5) is False
    assert checks.disc_splits(-7, 11) and not checks.disc_splits(-7, 5)


@pytest.mark.parametrize(
    "p, split, inert, oracle",
    [(7, [11, 29], [3], True), (23, [], [5, 17], True), (31, [], [3, 11], True), (71, [3, 5, 19], [], False)],
)
def test_check_selmer(p, split, inert, oracle):
    assert all(checks.splits(p, q) for q in split) and not any(checks.splits(p, q) for q in inert)
    d = workloads.twist_d(split + inert)
    argv = ["selmer", "--p", str(p), "--d", str(d)] + (["--oracle"] if oracle else [])
    row = run_cli(argv)
    assert checks.check_selmer(row, p, d, split, inert, oracle) == []
    wrong = []
    for key, value in (("t", row["t"] + 1), ("rank", row["rank"] + 2), ("dim_f2", row["dim_f2"] + 2)):
        bad = dict(row, **{key: value})
        wrong.append(bad)
    bad = copy.deepcopy(row)
    bad["generators"] = bad["generators"][1:]
    wrong.append(bad)
    bad = copy.deepcopy(row)
    bad["arrows"][0][0] = 1
    wrong.append(bad)
    if oracle:
        wrong.append(dict(row, oracle_dim_f2=row["dim_f2"] + 2))
    for bad in wrong:
        assert checks.check_selmer(bad, p, d, split, inert, oracle), bad


def test_check_selmer_rejects_a_flipped_arrow_that_changes_t():
    p, split = 7, [11, 29, 43]
    d = workloads.twist_d(split)
    row = run_cli(["selmer", "--p", str(p), "--d", str(d)])
    n = len(row["arrows"])
    flips = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                bad = copy.deepcopy(row)
                bad["arrows"][i][j] ^= 1
                if checks.laplacian_corank(bad["arrows"]) != checks.laplacian_corank(row["arrows"]):
                    assert checks.check_selmer(bad, p, d, split, [], False)
                    flips += 1
    assert flips > 0


def test_check_selmer_minimality():
    # inert-only twist with a prime = 3 (mod 4): rank 1 would break minimality
    p, inert = 23, [7, 11]
    d = workloads.twist_d(inert)
    row = run_cli(["selmer", "--p", str(p), "--d", str(d)])
    assert row["rank"] > 1 and checks.check_selmer(row, p, d, [], inert, False) == []
    fake = dict(row, rank=1, t=0, dim_f2=2)
    assert any("minimality" in e for e in checks.check_selmer(fake, p, d, [], inert, False))


@pytest.mark.parametrize("p", [5, 11, 13, 37, 101])
def test_check_eta(p):
    for k in (1, 2):
        doc = run_cli(["eta", "--N", str(p**k), "--special"])
        assert checks.check_eta(doc, p, k) == []
        assert checks.check_eta(dict(doc, class_order=doc["class_order"] + 1), p, k)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 97, 1009])
def test_check_cuspidal(p):
    rep = etacusp.cuspidal_group_invariants(p)
    assert checks.check_cuspidal(rep.invariants, p) == []
    assert checks.check_cuspidal(tuple(rep.invariants) + (2,), p)


def test_cyclic_sum_invariants():
    assert checks.cyclic_sum_invariants(4, 6) == (2, 12)
    assert checks.cyclic_sum_invariants(1, 5) == (5,)
    assert checks.cyclic_sum_invariants(1, 1) == ()


@pytest.mark.parametrize("disc", [-23, -4, -3, -20, -1003, -10007])
def test_check_classnum(disc):
    doc = run_cli(["classnum", "--disc", str(disc)])
    h = checks.class_number(disc)
    assert checks.check_classnum(doc, disc, h) == []
    assert checks.check_classnum(dict(doc, h=doc["h"] + 1), disc, h)
    assert checks.check_classnum(doc, disc, h + 1)
    if doc["forms"]:
        forms = [list(f) for f in doc["forms"]]
        forms[-1][1] += 2 * forms[-1][0]  # |b| > a: not reduced
        assert checks.check_classnum(dict(doc, forms=forms), disc, h)


def _flip(doc: dict) -> dict:
    other = "inconclusive" if doc["conclusion"] == "nontorsion" else "nontorsion"
    return dict(doc, conclusion=other)


def test_check_heegner_prime_level():
    seen = 0
    for p, q in ((11, 5), (73, 2), (31, 5), (41, 5)):
        for disc in (-7, -19, -23, -31, -43, -47, -59, -71, -79, -103, -127):
            if disc % p == 0 or not checks.disc_splits(disc, p):
                continue
            doc = run_cli(["heegner", "--p", str(p), "--K", str(disc), "--q", str(q)])
            h = checks.class_number(disc)
            assert checks.check_heegner_p(doc, p, disc, q, h) == []
            assert checks.check_heegner_p(_flip(doc), p, disc, q, h)
            seen += 1
    assert seen >= 8


def test_check_p2_verdicts():
    seen = 0
    for p in (13, 41, 101, 139):
        _, q_p2, q_r = workloads.level_qs(p)
        r = {1: -1, p: p + 1, p * p: -p}
        div = etacusp.CuspDivisor.from_map(p * p, {p: 1, p * p: -(p - 1)})
        for disc in (-7, -8, -11, -19, -23, -31, -43, -47, -71, -79, -1003):
            if disc % p == 0 or not checks.disc_splits(disc, p):
                continue
            h = checks.class_number(disc)
            if q_p2:
                doc = run_cli(["heegner", "--p2", str(p), "--K", str(disc), "--q", str(q_p2)])
                assert checks.check_heegner_p2(doc, p, disc, q_p2, h) == []
                assert checks.check_heegner_p2(dict(doc, criterion="prime_level_2"), p, disc, q_p2, h)
            doc = workloads.verdict_doc(descent.verdict_rational_divisor(p * p, r, div, disc, q_r))
            assert checks.check_rational_divisor(doc, p, disc, q_r, h) == []
            # a conclusion that contradicts its own trace is always caught
            assert checks.check_rational_divisor(_flip(doc), p, disc, q_r, h)
            seen += 1
    assert seen >= 8


def test_check_split_verdict_one_way_implication():
    p, q, h = 13, 7, 1  # n = (13^2 - 1)/24 = 7, so v_7(h) = 0 < v_7(n) = 1
    assert checks.disc_splits(-23, p) and not checks.disc_splits(-7, p)
    doc = {
        "criterion": "p2_level",
        "conclusion": "inconclusive",
        "trace": [
            {"name": "13 splits in K", "value": "True", "passed": True},
            {"name": "v_q(h_K/o) < v_q(n)", "value": "", "passed": False},
        ],
    }
    assert any("but inconclusive" in e for e in checks.check_heegner_p2(doc, p, -23, q, h))
    assert any("splitting entry" in e for e in checks.check_heegner_p2(doc, p, -7, q, h))


@pytest.mark.parametrize("p", [5, 13, 101, 701])
def test_check_eigencheck(p):
    prec = 2000 if p < 700 else workloads.EIGEN_PREC
    doc = run_cli(["eigencheck", "--p", str(p), "--prec", str(prec)])
    assert checks.check_eigencheck(doc, p, prec) == []
    bad = copy.deepcopy(doc)
    bad["results"][0]["status"] = "fail"
    assert checks.check_eigencheck(bad, p, prec)
    bad = copy.deepcopy(doc)
    bad["results"].pop()
    assert checks.check_eigencheck(bad, p, prec)


def _argvs(workload, seed, rounds):
    gen = workloads.ROUNDS[workload](seed)
    out = []
    for _ in range(rounds):
        for op in next(gen):
            out.append(tuple(op.argv) if op.argv else (op.func, op.make_args({"etacusp": etacusp})[0]))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_seeded_and_distinct(workload):
    a = _argvs(workload, 5, 3)
    assert a == _argvs(workload, 5, 3)
    assert a != _argvs(workload, 6, 3)
    if workload != "eisenstein-levels":
        assert len(set(a)) == len(a)


def test_level_round_shape():
    rounds = workloads.eisenstein_level_rounds(1)
    levels = []
    for _ in range(6):
        ops = next(rounds)
        round_levels = [int(op.argv[2]) for op in ops if op.kind == "eta-p"]
        assert sorted(p % 12 for p in round_levels) == sorted(workloads.LEVEL_CLASSES)
        levels += round_levels
        discs = [int(op.argv[2]) for op in ops if op.kind == "classnum"]
        assert len(discs) == len(workloads.DISC_DECADES) * len(round_levels)
        for i, disc in enumerate(discs):
            e = workloads.DISC_DECADES[i % len(workloads.DISC_DECADES)]
            assert 10**e <= -disc <= 10 ** (e + 1) and checks.is_fundamental(disc, SMALL_PRIMES)
    assert len(set(levels)) == len(levels)


def test_selmer_widths():
    ops = next(workloads.selmer_oracle_rounds(1))
    assert sorted(int(op.kind[len("selmer-w"):]) for op in ops) == sorted(
        list(workloads.ORACLE_WIDTHS) * len(workloads.SELMER_PRIMES)
    )


def test_tracer_wraps_imported_bindings_and_self_times_add_up():
    import eisq

    mods = {name: getattr(eisq, name) for name in layertrace.LAYERS}
    tracer = layertrace.Tracer()
    tracer.install(mods)
    try:
        from eisq import selmer

        assert selmer.factor is eisq.arith.factor and hasattr(selmer.factor, "__wrapped__")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["selmer", "--p", "7", "--d", "-11", "--oracle", "--format", "json"])
    finally:
        tracer.uninstall()
    assert not hasattr(eisq.arith.factor, "__wrapped__")
    metrics, root, total_self = tracer.summary()
    assert root > 0 and abs(root - total_self) < 1e-9
    assert metrics["quadfield.is_local_square.calls"] > 0 and metrics["selmer.bruteforce.candidates"] == 2 * 2**3
    assert {name for name, _, _ in layertrace.METRICS} == set(metrics)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(m) for m in layertrace.METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {"ops_per_s", "op_iqm_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selmer-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
