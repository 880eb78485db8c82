import argparse
import io
import json
import os
import select
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisq import classgroup, selmer
from eisq.cli import EXIT_CAP, EXIT_OK, EXIT_VALIDATION, _jsonable, canonical_json, main
from eisq.errors import InternalCheckError
from eisq.modforms import MAX_EIGEN_PREC


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_classnum_table():
    code, out = run_cli("classnum", "--p", "23")
    assert code == EXIT_OK
    assert "h = 3" in out and "(2,1,3)" in out


def test_parser_is_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert run_cli("classnum", "--p", "7")[0] == EXIT_OK
    # the parser and its 5 subparsers once at most, however many calls
    assert len(built) <= 6


def test_classnum_json_example():
    code, out = run_cli("classnum", "--p", "7", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"p": 7, "h": 1, "forms": [[1, 1, 2]]}


def test_classnum_validation_exit():
    code, _ = run_cli("classnum", "--p", "4")
    assert code == EXIT_VALIDATION
    code, _ = run_cli("classnum")
    assert code == EXIT_VALIDATION


def test_selmer_single_with_oracle():
    code, out = run_cli("selmer", "--p", "7", "--d", "-11", "--oracle")
    assert code == EXIT_OK
    assert "rank = 3" in out and "agrees" in out


def test_selmer_minimal_case():
    code, out = run_cli("selmer", "--p", "7", "--d", "5")
    assert code == EXIT_OK
    assert "rank = 1" in out


def test_selmer_sweep_tsv():
    code, out = run_cli("selmer", "--p", "7", "--d-range", "-40..40", "--format", "tsv")
    assert code == EXIT_OK
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) >= 10
    ds = [int(r[0]) for r in rows]
    assert -11 in ds and 5 in ds


def test_selmer_needs_d():
    code, _ = run_cli("selmer", "--p", "7")
    assert code == EXIT_VALIDATION


def test_selmer_cap_exit():
    # 17 generators: 4^17 candidate pairs exceed the oracle's cap of 2^24
    code, out, err = run_cli_err("selmer", "--p", "7", "--d", "-2943050537207", "--oracle")
    assert code == EXIT_CAP and out == ""
    assert err.startswith("resource cap: instance too large for oracle: 4^17 pairs"), err
    # 25 generators: the even-partition walk's cap of 24 vertices, with or without the oracle
    code, out, err = run_cli_err("selmer", "--p", "7", "--d", "2388693501393977860124317")
    assert code == EXIT_CAP and out == ""
    assert err == "resource cap: 25 vertices exceed the partition cap 24\n", err


def test_eta_special():
    code, out = run_cli("eta", "--N", "49", "--special")
    assert code == EXIT_OK
    assert "ok=True" in out and "class order 2" in out


def test_eta_explicit_exponents():
    code, out = run_cli("eta", "--N", "11", "--r", "12,-12")
    assert code == EXIT_OK
    assert "5*[1]" in out and "class order 5" in out


def test_eta_failing_condition():
    code, out = run_cli("eta", "--N", "49", "--r", "1,-1,0")
    assert code == EXIT_OK
    assert "weighted_mod24=False" in out and "ok=False" in out


def test_eta_wrong_exponent_count():
    code, _ = run_cli("eta", "--N", "49", "--r", "1,-1")
    assert code == EXIT_VALIDATION


def test_heegner_prime_level():
    code, out = run_cli("heegner", "--p", "11", "--K", "-7", "--q", "5")
    assert code == EXIT_OK
    assert "NONTORSION" in out


def test_heegner_p2():
    code, out = run_cli("heegner", "--p2", "13", "--K", "-3", "--q", "7", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["conclusion"] == "nontorsion" and doc["criterion"] == "p2_level"


def test_heegner_q2_routes_to_two_eisenstein():
    code, out = run_cli("heegner", "--p", "73", "--K", "-19", "--q", "2")
    assert code == EXIT_OK
    assert "prime_level_2" in out and "NONTORSION" in out


def test_heegner_ns():
    code, out = run_cli("heegner", "--ns", "73", "--K", "-19")
    assert code == EXIT_OK
    assert "u = 3" in out and "NONTORSION" in out


def test_heegner_inconclusive_annotation():
    code, out = run_cli("heegner", "--p", "11", "--K", "-79", "--q", "5")
    assert code == EXIT_OK
    assert "INCONCLUSIVE" in out and "one-way" in out


def test_eigencheck():
    code, out = run_cli("eigencheck", "--p", "5", "--prec", "200")
    assert code == EXIT_OK
    assert "all pass" in out
    code, out = run_cli("eigencheck", "--p", "7", "--prec", "40")
    assert code == EXIT_OK
    assert "warning: insufficient precision" in out


def test_json_round_trip_byte_identical():
    for argv in (
        ("classnum", "--p", "23", "--format", "json"),
        ("selmer", "--p", "7", "--d", "-11", "--oracle", "--format", "json"),
        ("eta", "--N", "49", "--special", "--format", "json"),
        ("heegner", "--p", "11", "--K", "-7", "--q", "5", "--format", "json"),
        ("eigencheck", "--p", "5", "--prec", "120", "--format", "json"),
    ):
        _, out = run_cli(*argv)
        parsed = json.loads(out)
        assert canonical_json(parsed) + "\n" == out


def test_determinism_two_runs():
    for argv in (
        ("selmer", "--p", "7", "--d-range", "-60..60", "--format", "json"),
        ("eta", "--N", "121", "--special", "--format", "json"),
    ):
        _, first = run_cli(*argv)
        _, second = run_cli(*argv)
        assert first == second


def test_internal_consistency_exit(monkeypatch):
    import eisq.cli as cli_mod

    def broken_oracle(td):
        return 99

    monkeypatch.setattr(cli_mod.selmer, "selmer_group_bruteforce", broken_oracle)
    code, _, err = run_cli_err("selmer", "--p", "7", "--d", "5", "--oracle")
    assert code == 3 and "oracle disagrees with graph at p=7, d=5: 99 vs 2" in err, err


def _shift_t(monkeypatch, shift):
    """Move t by `shift` in both coranks and in the even-partition walk, so
    that of the always-on checks only the minimality criterion can see it."""
    real_coranks, real_walk = selmer._local_coranks, selmer.count_even_partitions

    def coranks(td):
        first, second = real_coranks(td)
        return first + shift, second + shift

    def walk(graph):
        t, nontrivial = real_walk(graph)
        return t + shift, nontrivial

    monkeypatch.setattr(selmer, "_local_coranks", coranks)
    monkeypatch.setattr(selmer, "count_even_partitions", walk)


MINIMALITY_FAULTS = ((5, 1), (-3, -1), (65, 1))  # (d at p = 7, shift of t)


def test_wrong_minimality_rank_exit_3(monkeypatch):
    # every inert-only twist is checked against the minimality criterion
    for d, shift in MINIMALITY_FAULTS:
        with monkeypatch.context() as m:
            _shift_t(m, shift)
            err = io.StringIO()
            with redirect_stderr(err):
                code, _ = run_cli("selmer", "--p", "7", "--d", str(d))
        assert code == 3, d
        assert f"minimality cross-check failed for d={d}" in err.getvalue()


def test_one_graph_rank_per_twist(monkeypatch):
    # one rank per row, and the minimality check runs inside it on the
    # inert-only twists alone, on the rank it returns
    ranks, checked = [], []
    real_rank, real_check = selmer.selmer_rank_graph, selmer._check_minimality

    def counted_rank(td):
        ranks.append(td.d)
        return real_rank(td)

    def counted_check(td, rank):
        checked.append((td.d, rank))
        return real_check(td, rank)

    monkeypatch.setattr(selmer, "selmer_rank_graph", counted_rank)
    monkeypatch.setattr(selmer, "_check_minimality", counted_check)
    code, out = run_cli("selmer", "--p", "7", "--d-range", "-200..200", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert ranks == [r["d"] for r in rows]
    inert_only = [(r["d"], r["rank"]) for r in rows if all(g.lstrip("-").isdigit() for g in r["generators"][1:])]
    assert checked == inert_only
    assert {d for d, _ in checked} >= {5, -3} and -11 not in {d for d, _ in checked}


def test_no_floats_anywhere():
    for argv in (
        ("eta", "--N", "49", "--r", "1,-1,0", "--format", "json"),
        ("selmer", "--p", "7", "--d", "-11", "--format", "json"),
    ):
        _, out = run_cli(*argv)

        def walk(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        walk(json.loads(out))


def test_jsonable_nested_values():
    doc = {"a": [Fraction(1, 2), (3, True, None)], 5: ([1, 2], (Fraction(-4, 6),)), "b": [True, 1, False]}
    assert _jsonable(doc) == {"a": [[1, 2], [3, True, None]], "5": [[1, 2], [[-2, 3]]], "b": [True, 1, False]}
    assert canonical_json(doc) == '{"5":[[1,2],[[-2,3]]],"a":[[1,2],[3,true,null]],"b":[true,1,false]}'
    for bad in ({"x": [1, [2, 1.5]]}, (1, 2.0), [Fraction(1, 2), {"y": (0.5,)}]):
        with pytest.raises(InternalCheckError, match="floats are not allowed"):
            _jsonable(bad)


def test_jsonable_passes_int_rows_and_rejects_floats_in_them():
    # int rows, such as the forms of classnum, go out uncopied; a float or a
    # Fraction anywhere in a row still takes the checked path
    forms = classgroup.reduced_forms(-47)
    rows = [[1, 2, 3], (4, -5, 6)]
    assert _jsonable(forms) is forms and _jsonable(rows) is rows and _jsonable((1, 2)) == (1, 2)
    assert canonical_json({"forms": forms}) == '{"forms":[[1,1,12],[2,-1,6],[2,1,6],[3,-1,4],[3,1,4]]}'
    assert _jsonable([(1, Fraction(1, 2))]) == [[1, [1, 2]]]
    assert _jsonable([{1: 2}]) == [{"1": 2}]  # dict rows are not int rows
    for bad in ([(1, 1, 12), (2, -1.0, 6)], [(1, 1, 12), (2, 1, 6.0)], [[1], 2.5]):
        with pytest.raises(InternalCheckError, match="floats are not allowed"):
            _jsonable(bad)


def run_cli_err(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_bad_integer_lists_exit_2():
    for argv in (
        ("eta", "--N", "49", "--r", "a,b,c"),
        ("eta", "--N", "49", "--r", "1,,-1"),
        ("eigencheck", "--p", "5", "--primes", "2,x"),
        ("eigencheck", "--p", "5", "--primes", ""),
        ("eta", "--N=-4", "--special"),
        ("eta", "--N=-4", "--r", "1,2,3"),
        ("eta", "--N", "49", "--r", "1,2,3", "--special"),
        ("eta", "--N", "49", "--special", "--r=-1,8,-7"),
    ):
        code, out, err = run_cli_err(*argv)
        assert code == EXIT_VALIDATION, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_reversed_range_exit_2():
    code, out, err = run_cli_err("selmer", "--p", "7", "--d-range", "5..1")
    assert code == EXIT_VALIDATION
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run_cli_err("selmer", "--p", "7", "--d-range", "5..5")
    assert code == EXIT_OK and "d=5" in out


def test_sweep_cost_follows_the_range():
    start = time.perf_counter()
    code, out = run_cli("selmer", "--p", "7", "--d-range", "2000001..2000021", "--format", "tsv")
    elapsed = time.perf_counter() - start
    # d = 1 (mod 4), prime to 7 and squarefree (isqrt(2000021) = 1414)
    admissible = [
        d for d in range(2000001, 2000022, 4) if d % 7 and all(d % (q * q) for q in range(3, 1415, 2))
    ]
    assert code == EXIT_OK
    assert [int(line.split("\t")[0]) for line in out.splitlines()] == admissible
    assert admissible == [2000001, 2000013, 2000017, 2000021]
    assert elapsed < 1.0, elapsed


def test_tsv_sweep_streams_its_first_row():
    # a range too wide ever to finish: the first row (d = 1) must come out
    # while the sweep runs, so the child is killed and reaped afterwards
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = ["selmer", "--p", "7", "--d-range", f"1..{10**38 + 1}", "--format", "tsv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "eisq.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        first = proc.stdout.readline() if ready else b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert first == b"1\t2\t7\t1\t0\n"


def test_closed_pipe_exits_0_without_a_traceback():
    # the reader takes one line and closes its end, as `| head -1` does:
    # the endless sweep's next row, and the buffered rest of a table longer
    # than a pipe holds, meet a broken pipe, which ends the command with 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for argv, first in (
        (["selmer", "--p", "7", "--d-range", f"1..{10**38 + 1}", "--format", "tsv"], b"1\t2\t7\t1\t0\n"),
        (["classnum", "--disc", "-9983951"], b"disc -9983951: h = 6368\n"),
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "eisq.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            line = proc.stdout.readline() if ready else b""
            proc.stdout.close()
            code = proc.wait(timeout=30)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert line == first, argv
        assert code == EXIT_OK and b"Traceback" not in err, (argv, code, err)


def test_conflicting_flags_exit_2():
    for argv in (
        ("classnum", "--p", "7", "--disc", "-23"),
        ("selmer", "--p", "7", "--d", "5", "--d-range", "1..10"),
        ("heegner", "--p", "11", "--p2", "13", "--K", "-7", "--q", "5"),
        ("heegner", "--ns", "73", "--p", "11", "--K", "-19", "--q", "5"),
        ("heegner", "--ns", "73", "--K", "-19", "--q", "5"),
    ):
        code, out, err = run_cli_err(*argv)
        assert code == EXIT_VALIDATION, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_large_split_prime_with_oracle():
    # d is prime and splits; its generator comes from d, with no rho on d^3
    start = time.perf_counter()
    code, out = run_cli("selmer", "--p", "23", "--d", "-100000000000139", "--oracle", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    row = json.loads(out)
    assert row["oracle_agrees"] and row["oracle_dim_f2"] == row["dim_f2"] == 4


def test_large_split_prime_h5():
    start = time.perf_counter()
    code, out = run_cli("selmer", "--p", "47", "--d", "-100000000003", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK and json.loads(out)["generators"] == ["-pi", "f(100000000003)", "-fbar(100000000003)"]


def test_classnum_non_fundamental_disc():
    code, out = run_cli("classnum", "--disc", "-36")
    assert code == EXIT_OK
    assert out == "disc -36: h = 2\n  (1,0,9)\n  (2,2,5)\n"


def test_classnum_disc_beyond_cap_exit_4():
    start = time.perf_counter()
    code, out, err = run_cli_err("classnum", "--disc", "-100000000000")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CAP
    assert out == "" and err.startswith("resource cap: ") and err.count("\n") == 1


def test_heegner_disc_beyond_cap_exit_4():
    # the verdict lists no forms, so the message names the cap on |D| itself
    code, out, err = run_cli_err("heegner", "--p", "11", "--K", "-1000000007", "--q", "5")
    assert code == EXIT_CAP
    assert out == ""
    assert err == "resource cap: discriminants are capped at |D| <= 1000000000, got -1000000007\n"


BIG_K = "-100000000000000000000000000007"


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "11", "--K", BIG_K, "--q", "5"),
        ("--p", "73", "--K", BIG_K, "--q", "2"),
        ("--p2", "13", "--K", BIG_K, "--q", "7"),
        ("--ns", "73", "--K", BIG_K),
        # not fundamental: the cap is tested first, as in classnum
        ("--p", "11", "--K", str(-4 * 10**29), "--q", "5"),
    ],
)
def test_heegner_far_beyond_cap_exits_4_at_once(argv):
    # in a process of its own, so that a search that does not stop fails
    # the test at the timeout instead of hanging it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "eisq.cli", "heegner", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == EXIT_CAP and proc.stdout == ""
    assert proc.stderr == f"resource cap: discriminants are capped at |D| <= 1000000000, got {argv[argv.index('--K') + 1]}\n"


def test_eigencheck_prec_beyond_cap_exit_4():
    start = time.perf_counter()
    code, out, err = run_cli_err("eigencheck", "--p", "5", "--prec", str(MAX_EIGEN_PREC + 1))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CAP
    assert out == "" and err.startswith("resource cap: ") and err.count("\n") == 1


# argv drawn from the real subcommands and options; values are small so
# each example runs in milliseconds, and biased towards the primes,
# levels and discriminants that get past validation
_small = st.one_of(
    st.integers(-60, 220),
    st.sampled_from([2, 3, 5, 7, 11, 13, 23, 25, 29, 31, 37, 41, 47, 49, 61, 71, 73, 89, 97, 101, 121, 169]),
)
_int = _small.map(str)
_text = st.one_of(_int, st.sampled_from(["", "x", "1.5", "-", "0", "1..", "5..1"]))
_list = st.one_of(st.lists(_small, max_size=5).map(lambda xs: ",".join(map(str, xs))), _text)
_range = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(lambda t: f"{t[0]}..{t[1]}")
_fmt = st.sampled_from(["table", "json", "tsv", "xml"])
_disc = st.one_of(st.integers(-400, 10), st.sampled_from([-3, -4, -7, -8, -19, -23, -43, -163, -1003, -2711]))
_q = st.one_of(st.integers(-3, 40), st.sampled_from([2, 3, 5, 7, 11, 13, 17, 31]))
_OPTIONS = {
    "classnum": {"--p": _int, "--disc": st.integers(-3000, 10).map(str), "--format": _fmt},
    "selmer": {
        "--p": _int,
        "--d": st.integers(-60, 60).map(str),
        "--d-range": st.one_of(_range, _text),
        "--oracle": None,
        "--format": _fmt,
    },
    "eta": {"--N": _int, "--r": _list, "--special": None, "--format": _fmt},
    "heegner": {
        "--p": _int,
        "--p2": st.one_of(st.integers(-5, 70), st.sampled_from([5, 7, 11, 13, 29, 41, 61])).map(str),
        "--ns": _int,
        "--K": _disc.map(str),
        "--q": _q.map(str),
        "--format": _fmt,
    },
    "eigencheck": {"--p": _int, "--prec": st.integers(-20, 400).map(str), "--primes": _list, "--format": _fmt},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    argv = [command]
    for name in draw(st.lists(st.sampled_from(sorted(options)), max_size=5, unique=True)):
        argv.append(name)
        if options[name] is not None:
            argv.append(draw(options[name]))
    return argv


@given(_argv())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv: usage, then one error line
            assert exc.code == EXIT_VALIDATION, argv
            assert err.getvalue().splitlines()[-1].startswith("eisq"), argv
            assert ": error: " in err.getvalue().splitlines()[-1], argv
            return
    assert code in (0, 2, 3, 4), argv
    if code == EXIT_OK:
        assert err.getvalue() == "", argv
    else:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


def _exit_of(call):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_DISPATCH_ARGV = (
    [[command, "-h"] for command in ("classnum", "selmer", "eta", "heegner", "eigencheck")]
    + [["selmer", "--d", "5"], ["eta", "--special"], ["eigencheck", "--prec", "20"]]  # a missing required option
    + [["classnum", "--bogus"], ["heegner", "--p", "11", "--K", "-7", "--q", "5", "-x"], ["eta", "--N", "11", "extra"]]
    + [[], ["-h"], ["--help"], ["bogus"], ["bogus", "--p", "7"], ["--format", "json", "classnum"]]
)


@pytest.mark.parametrize("argv", _DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "no-argv")
def test_direct_dispatch_matches_the_top_parser(argv):
    # main hands a known subcommand's argv to that subcommand's parser; the
    # exit code and stdout are those of the whole argv through the top parser
    from eisq.cli import build_parser

    code, out, err = _exit_of(lambda: main(list(argv)))
    top_code, top_out, top_err = _exit_of(lambda: build_parser().parse_args(list(argv)))
    assert (code, out) == (top_code, top_out)
    assert code == (0 if {"-h", "--help"} & set(argv) else EXIT_VALIDATION)
    # only an unrecognized argument is named by the subcommand's own parser
    last, top_last = err.splitlines()[-1:], top_err.splitlines()[-1:]
    if top_last and top_last[0].startswith("eisq: error: unrecognized arguments"):
        assert last == [top_last[0].replace("eisq:", f"eisq {argv[0]}:", 1)]
    else:
        assert err == top_err
