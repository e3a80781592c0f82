import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordcensus.cli import main


def _src_env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH, for
    commands run in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants", "--q", "2", "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert abs(data["phi1"] - 0.314148) < 1e-5
    assert abs(data["P_AS_modified"] - 0.314148) < 1e-5
    assert abs(data["zeta2"] - 2.0) < 1e-12
    assert data["error_bound"] < 1e-8
    assert data["q"] == 2 and data["p"] == 2


def test_constants_past_the_first_tail_bound(capsys):
    # psi_127(1)'s tail bound does not hold at the first truncation degree tried
    code, out, err = run(capsys, "constants", "--q", "127", "--p", "127")
    assert (code, err) == (0, "")
    assert 0 < json.loads(out)["psi_p1"] < 1e-17


def test_constants_psi_guard_exits_3(capsys):
    # 2053 is the first prime past the bound
    code, out, err = run(capsys, "constants", "--q", "2053", "--p", "2053")
    assert (code, out) == (3, "")
    assert "psi_p(1) guarded at p <= 2048, got p = 2053" in err


def test_constants_bad_q(capsys):
    code, _, err = run(capsys, "constants", "--q", "6", "--p", "2")
    assert code == 2
    assert "q = 6" in err


def test_constants_takes_no_truncation_degree(capsys):
    # it reached phi(1) and psi_p(1) but not the probabilities built on phi(1)
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--q", "2", "--p", "2", "--truncation-degree", "6"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,products", [
    (("constants", "--q", "2", "--p", "2"), 1),
    (("report-table1",), 5),
])
def test_each_euler_product_is_evaluated_once(capsys, monkeypatch, cold_caches, argv, products):
    from ordcensus import dirichlet
    calls = []
    euler_product = dirichlet.euler_product

    def counted(*args, **kwargs):
        calls.append(args[0])
        return euler_product(*args, **kwargs)
    monkeypatch.setattr(dirichlet, "euler_product", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == products


def test_census_as_both_modes(capsys):
    code, out, _ = run(capsys, "census", "as", "--q", "2", "--p", "2",
                       "--max-m", "8", "--mode", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,a_m,b_m,cumulative_ratio"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert rows[2][1] == "2" and rows[2][2] == "2"
    assert rows[4][1] == "8" and rows[4][2] == "4"


@pytest.mark.parametrize("q, p, mode", [(1024, 2, "both"), (2048, 2, "both"),
                                         (1009, 1009, "enumerate")])
def test_census_as_over_fields_of_many_places(capsys, q, p, mode):
    # q places of degree 1 (q = 2048 is the enumeration edge, q^2 = 2^22):
    # the family walk recurses per place it takes, not per place it skips.
    # At m = 2 each cover has one simple pole, at one of q places, with
    # q - 1 local parts, and is ordinary
    code, out, err = run(capsys, "census", "as", "--q", str(q), "--p", str(p),
                         "--max-m", "2", "--mode", mode)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"2,{q * (q - 1)},{q * (q - 1)},1.000000"


def test_census_as_json(capsys):
    args = ("census", "as", "--q", "2", "--p", "2", "--max-m", "8")
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0] == {"m": 2, "a_m": 2, "b_m": 2, "cumulative_ratio": 1.0}
    # each ratio is the CSV's, to 6 places: at m = 6 it is 26/42 = 0.6190476...
    _, csv, _ = run(capsys, *args)
    assert [row["cumulative_ratio"] for row in data] == [
        float(line.split(",")[3]) for line in csv.splitlines()[1:]]
    assert data[4] == {"m": 6, "a_m": 32, "b_m": 20, "cumulative_ratio": 0.619048}


def test_census_guard_exit_code(capsys):
    code, _, err = run(capsys, "census", "as", "--q", "16", "--p", "2",
                       "--max-m", "10", "--mode", "enumerate")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("q, bound, edge", [
    ("2", ("--max-m", "100000"), "2714"),
    ("2", ("--max-m", "2715"), "2714"),
    ("2", ("--x-bound", str(10 ** 1000)), "2714"),   # 10^1000 > 2^3321
    ("1048576", ("--max-m", "701"), "700"),          # 701 * 20 bits > 14000
])
def test_census_as_analytic_guard_fires_before_any_series(capsys, monkeypatch, q, bound, edge):
    from ordcensus import dirichlet

    def no_work(*args):
        raise AssertionError("Euler coefficients computed before the guard")
    monkeypatch.setattr(dirichlet, "euler_coefficients", no_work)
    code, out, err = run(capsys, "census", "as", "--q", q, "--p", "2", *bound)
    assert (code, out) == (3, "")
    assert err.startswith(f"resource guard: analytic census guard exceeded at q = {q}")
    with pytest.raises(AssertionError, match="before the guard"):
        main(["census", "as", "--q", q, "--p", "2", "--max-m", edge])


def test_analytic_bit_guard_reads_the_int_string_limit(capsys, monkeypatch):
    """The bit guard keeps its margin below the interpreter's limit on
    printing an int, and fires before any series work; with no limit only the
    cost guard is left."""
    from ordcensus import dirichlet

    def no_work(*args):
        raise AssertionError("Euler coefficients computed before the guard")
    monkeypatch.setattr(dirichlet, "euler_coefficients", no_work)
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, "census", "as", "--q", "2", "--p", "2", "--max-m", "2500")
        assert (code, out) == (3, "")
        assert err.startswith("resource guard: analytic census guard exceeded at q = 2, "
                              "m_max = 2500: over 1841 bits")
        with pytest.raises(AssertionError, match="before the guard"):
            main(["census", "as", "--q", "2", "--p", "2", "--max-m", "1841"])
        sys.set_int_max_str_digits(0)
        with pytest.raises(AssertionError, match="before the guard"):
            main(["census", "as", "--q", "1048576", "--p", "2", "--max-m", "1000"])
    finally:
        sys.set_int_max_str_digits(default)


def test_cover_place_past_the_sieve_guard_exits_3(capsys, monkeypatch, tmp_path):
    # x^4 + x^3 + x + 2 is irreducible over F_4096; trial division would
    # need the places of degree 2 (4096^2 > 2^22 positions), Ben-Or's test
    # needs no sieve, and the oracle then refuses its sweeps over F_4096^k
    from ordcensus import polys

    def refuse(*args):
        raise AssertionError("sieved past the guard")

    monkeypatch.setattr(polys, "_times_place", refuse)
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 4096, "p": 2,
                                 "branch": [{"place": "2,1,0,1,1", "local": [1]}]}))
    code, out, err = run(capsys, "oracle", "--cover", str(cover))
    assert code == 3
    assert "point-count sweep q^k = 4096^6" in err
    assert out == ""


def test_census_se(capsys):
    code, out, _ = run(capsys, "census", "se", "--q", "2", "--n", "3", "--max-m", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,a_m,b_m,cumulative_ratio"
    assert lines[1].startswith("0,1,1")
    assert lines[2].startswith("1,4,4")


def test_census_se_sieve_check_exits_4(capsys, monkeypatch, cold_caches):
    from ordcensus import polys
    count = polys.count_irreducibles
    monkeypatch.setattr(polys, "count_irreducibles", lambda q, d: count(q, d) + 1)
    code, out, err = run(capsys, "census", "se", "--q", "2", "--n", "3", "--max-m", "4")
    assert code == 4
    assert "place sieve" in err
    assert out == ""


def test_census_x_bound(capsys):
    # q^m < 32 with q=2 means m <= 4
    code, out, _ = run(capsys, "census", "as", "--q", "2", "--p", "2",
                       "--x-bound", "32")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("4,")


@pytest.mark.parametrize("argv, message", [
    (("--x-bound", "1"), "--x-bound must be >= 2"),
    ((), "one of --max-m / --x-bound is required"),
])
def test_census_bad_x_bound_or_no_bound_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "census", "as", "--q", "2", *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("family, q", [("as", "1"), ("as", "0"), ("as", "-1"), ("se", "1")])
def test_census_x_bound_with_q_below_2_exits_at_once(family, q):
    # --x-bound is converted by a loop on q^m < X, which ends only for q >= 2
    proc = subprocess.run([sys.executable, "-m", "ordcensus.cli", "census", family,
                           "--q", q, "--x-bound", "100"],
                          env=_src_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_malformed_cover_file_is_a_usage_error(capsys, tmp_path):
    # an infinity coefficient 7 names no element of F_4
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 4, "p": 2, "branch": [{"place": "1,1", "local": [1]}],
                                 "infinity": [7]}))
    for command in ("classify", "oracle"):
        code, out, err = run(capsys, command, "--cover", str(cover))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad cover data")


def test_a_cover_file_that_is_no_curve_is_bad_cover_data(capsys, tmp_path):
    # y^3 = 1 has no branch point; SECover refuses it as it loads
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 2, "n": 3, "parts": ["1", "1"]}))
    for command in ("classify", "oracle"):
        assert run(capsys, command, "--cover", str(cover)) == (
            2, "", "error: bad cover data: the equation does not define a curve "
                   "(fewer than 2 branch points)\n"), command


def test_a_sample_of_degree_sum_0_is_refused_before_any_draw():
    # the one degree tuple with sum 0 is y^n = 1, so there is none to draw from
    argv = [sys.executable, "-m", "ordcensus.cli", "classify", "--max-m", "0", "--sample"]
    proc = subprocess.run(argv + ["1"], env=_src_env(), capture_output=True, text=True,
                          timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "no admissible degree tuples with sum 0" in proc.stderr
    proc = subprocess.run(argv + ["0"], env=_src_env(), capture_output=True, text=True,
                          timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("content", [
    b'{"q": 2, "p": 2, "infinity": [1], "note": "\xff"}',  # not UTF-8
    b'{"q": 2, "p": 2, "infinity": [1], "n": ' + b"1" * 5000 + b"}",  # over the int limit
    b"[" * 100000 + b"]" * 100000,  # deeper than json's recursion allows
], ids=["not-utf-8", "huge-int", "nested"])
def test_undecodable_cover_file_is_a_usage_error(capsys, tmp_path, content):
    cover = tmp_path / "cover.json"
    cover.write_bytes(content)
    for command in ("classify", "oracle"):
        code, out, err = run(capsys, command, "--cover", str(cover))
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: cannot read cover file")


def test_cover_with_a_repeated_place_is_a_usage_error(capsys, tmp_path):
    # the place x listed twice over F_2 is no branch data, not a Weil-bound fault
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 2, "p": 2, "branch": [{"place": "0,1", "local": [1]},
                                                            {"place": "0,1", "local": [1]}]}))
    for command in ("classify", "oracle"):
        code, out, err = run(capsys, command, "--cover", str(cover))
        assert code == 2, command
        assert out == ""
        assert "place occurs twice" in err


@pytest.mark.parametrize("n, sample", [("1", "1"), ("2", "1"), ("4", "1"), ("9", "1"),
                                       ("2", "0")], ids=["1", "2", "4", "9", "2-sample-0"])
def test_classify_sample_with_n_not_an_odd_prime_exits_at_once(n, sample):
    # every draw of SECover with such an n is refused, so sampling never
    # ends; and with no draw at all, n is still checked
    proc = subprocess.run([sys.executable, "-m", "ordcensus.cli", "classify", "--sample", sample,
                           "--q", "2", "--n", n, "--max-m", "3"],
                          env=_src_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "n must be an odd prime" in proc.stderr


P = 10 ** 18 + 3  # a prime: trial division to its square root would run for hours


@pytest.mark.parametrize("argv", [
    ("verify-kernel", "--n", str(P)),
    ("constants", "--q", str(P), "--p", str(P)),
    ("census", "se", "--q", "2", "--n", str(P), "--max-m", "0"),
    ("classify", "--sample", "0", "--q", "2", "--n", str(P)),
    ("classify", "--cover", "COVER"),
], ids=["verify-kernel", "constants", "census-se", "classify-sample", "classify-cover"])
def test_a_huge_prime_is_refused_before_trial_division(tmp_path, argv):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 2, "n": P, "parts": ["0,1", "1"]}))
    proc = subprocess.run([sys.executable, "-m", "ordcensus.cli",
                           *(str(cover) if a == "COVER" else a for a in argv)],
                          env=_src_env(), capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"resource guard: primality test guarded at n <= 2^40, got {P}\n"


@pytest.mark.parametrize("argv, edge", [
    (("census", "se", "--n", "101", "--max-m", "6"), ("census", "se", "--n", "101", "--max-m", "1")),
    # C(101, 99) 100^2 = 50,500,000 is the first count over the limit at n = 101
    (("census", "se", "--n", "101", "--max-m", "2"), ("census", "se", "--n", "101", "--max-m", "1")),
    (("census", "se", "--n", "997", "--max-m", "3"), ("census", "se", "--n", "997", "--max-m", "0")),
    (("classify", "--sample", "1", "--n", "1009", "--max-m", "3"),
     ("classify", "--sample", "1", "--n", "1009", "--max-m", "0")),
])
def test_degree_tuples_are_guarded_before_any_route(capsys, monkeypatch, cold_caches, argv,
                                                    edge):
    from ordcensus import superelliptic

    def no_work(*args):
        raise AssertionError("degree tuples listed before the guard")
    monkeypatch.setattr(superelliptic, "degree_tuples", no_work)
    code, out, err = run(capsys, *argv, "--q", "2")
    assert (code, out) == (3, "")
    assert "guarded at C(m+n-2, n-2) (n-1)^2 <= 50,000,000" in err
    with pytest.raises(AssertionError, match="before the guard"):
        main([*edge, "--q", "2"])


@pytest.mark.parametrize("n, edge", [("3", 61881), ("401", 155)])
def test_classify_sample_size_is_guarded_before_the_first_draw(capsys, monkeypatch, n, edge):
    # N ((n-1)^2 + 400) <= 25,000,000
    from ordcensus import superelliptic

    def no_draw(*args):
        raise AssertionError("drew a cover before the guard")
    monkeypatch.setattr(superelliptic, "random_se_cover", no_draw)
    for sample in ("100000000", str(edge + 1)):
        code, out, err = run(capsys, "classify", "--sample", sample, "--q", "2", "--n", n,
                             "--max-m", "1")
        assert (code, out) == (3, "")
        assert err.startswith("resource guard: classify --sample guarded at N ((n-1)^2 + 400)")
    with pytest.raises(AssertionError, match="before the guard"):
        main(["classify", "--sample", str(edge), "--q", "2", "--n", n, "--max-m", "1"])


def test_census_max_m_with_x_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "census", "as", "--q", "2", "--p", "2",
                         "--max-m", "3", "--x-bound", "8")
    assert code == 2
    assert out == ""
    assert "--max-m" in err and "--x-bound" in err


def test_census_both_names_first_differing_row(capsys, monkeypatch):
    from ordcensus import artin_schreier as asc
    enumerated = asc.census_enumerated

    def off_by_one_at_6(field, m_max, include_infinity=False):
        table = enumerated(field, m_max, include_infinity)
        a, b = table.rows[6]
        return asc.CensusTable({**table.rows, 6: (a + 1, b)})

    monkeypatch.setattr(asc, "census_enumerated", off_by_one_at_6)
    code, out, err = run(capsys, "census", "as", "--q", "2", "--p", "2",
                         "--max-m", "8", "--mode", "both")
    assert code == 4
    assert out == ""
    assert "m=6" in err and "(32, 20)" in err and "(33, 20)" in err
    assert "m=8" not in err and "(128," not in err  # one row, not both tables


def test_census_se_names_the_row_where_the_routes_disagree(capsys, monkeypatch):
    from ordcensus import superelliptic
    omega = superelliptic.census_a_omega
    monkeypatch.setattr(superelliptic, "census_a_omega",
                        lambda field, n, m: omega(field, n, m) + (m == 3))
    code, out, err = run(capsys, "census", "se", "--q", "2", "--n", "3", "--max-m", "5")
    assert (code, out) == (4, "")
    assert err == "invariant violation: census routes disagree at m=3: 12, 13, 12\n"


def test_only_constants_load_decimal(tmp_path):
    # a fresh process: tests/test_dirichlet.py imports decimal into this one
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 2, "p": 2,
                                 "branch": [{"place": "0,1", "local": [0, 0, 1]}],
                                 "infinity": None}))
    script = f"""
import contextlib, io, sys
from ordcensus.cli import main
def quiet(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()
quiet("census", "as", "--q", "2", "--max-m", "6", "--mode", "both")
quiet("census", "se", "--q", "2", "--n", "3", "--max-m", "4")
quiet("classify", "--sample", "3", "--q", "2", "--n", "3", "--max-m", "3")
quiet("oracle", "--cover", {str(cover)!r})
assert "decimal" not in sys.modules
constants = [("constants", "--q", "3", "--p", "3"), ("report-table1",)]
outs = [quiet(*argv) for argv in constants]
assert "decimal" in sys.modules
assert "mpmath" not in sys.modules
import decimal
ctx = decimal.getcontext()
ctx.prec, ctx.rounding, ctx.traps[decimal.Inexact] = 5, decimal.ROUND_FLOOR, True
state = (ctx.prec, ctx.rounding, dict(ctx.traps), dict(ctx.flags))
# the constants do not read the caller's context, nor change it
assert [quiet(*argv) for argv in constants] == outs
assert (ctx.prec, ctx.rounding, dict(ctx.traps), dict(ctx.flags)) == state
assert decimal.getcontext() is ctx
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_cli_runs_on_the_standard_library_alone(capsys, tmp_path):
    # python -S leaves site-packages off sys.path
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 2, "p": 2,
                                 "branch": [{"place": "0,1", "local": [0, 0, 1]}],
                                 "infinity": None}))
    for argv in [("constants", "--q", "3", "--p", "3"), ("report-table1",),
                 ("census", "as", "--q", "2", "--max-m", "8"),
                 ("census", "se", "--q", "2", "--n", "3", "--max-m", "6"),
                 ("classify", "--sample", "3", "--q", "2", "--n", "3", "--max-m", "4"),
                 ("oracle", "--cover", str(cover))]:
        proc = subprocess.run([sys.executable, "-S", "-m", "ordcensus.cli", *argv],
                              env=_src_env(), capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert (0, proc.stdout) == run(capsys, *argv)[:2], argv


def _modules_after(argv, cover):
    """The ordcensus submodules and the named stdlib modules in sys.modules
    after one command in a fresh process."""
    script = f"""
import contextlib, io, json, sys
from ordcensus.cli import main
argv = [{cover!r} if a == "COVER" else a for a in {list(argv)!r}]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        assert main(argv) == 0, argv
    except SystemExit as exc:
        assert exc.code == 0, argv
mods = sorted(m for m in sys.modules if m == "ordcensus" or m.startswith("ordcensus."))
print(json.dumps([mods, [m for m in ("dataclasses", "inspect", "fractions")
                         if m in sys.modules]]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    mods, stdlib = json.loads(proc.stdout)
    return {m.removeprefix("ordcensus.") for m in mods}, set(stdlib)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 2, "p": 2,
                                 "branch": [{"place": "0,1", "local": [1]}],
                                 "infinity": [1]}))
    se_cover = tmp_path / "se_cover.json"
    se_cover.write_text(json.dumps({"q": 2, "n": 3, "parts": ["1,1,1", "0,1,1"]}))
    commands = {
        "help": ("--help",),
        "census as": ("census", "as", "--q", "2", "--max-m", "6", "--mode", "both"),
        "census as analytic": ("census", "as", "--q", "2", "--max-m", "8"),
        "census se": ("census", "se", "--q", "2", "--n", "3", "--max-m", "4",
                      "--format", "json"),
        "constants": ("constants", "--q", "3", "--p", "3"),
        "report-table1": ("report-table1",),
        "classify": ("classify", "--sample", "2", "--q", "2", "--n", "3", "--max-m", "3"),
        "classify cover": ("classify", "--cover", "COVER"),
        "classify se cover": ("classify", "--cover", str(se_cover)),
        "oracle": ("oracle", "--cover", "COVER"),
        "oracle se": ("oracle", "--cover", str(se_cover)),
        "verify-kernel": ("verify-kernel", "--n", "5"),
    }
    loaded = {name: _modules_after(argv, str(cover)) for name, argv in commands.items()}
    assert loaded["help"][0] == {"ordcensus", "cli", "errors"}
    assert not {"superelliptic", "oracle", "serialize"} & loaded["census as"][0]
    assert not {"superelliptic", "oracle", "serialize", "polys"} & loaded["census as analytic"][0]
    assert not {"artin_schreier", "oracle", "serialize"} & loaded["census se"][0]
    assert "polys" not in loaded["constants"][0]
    assert "polys" not in loaded["report-table1"][0]
    # a cover loads only the record module of its kind, and no census module
    for name in ("oracle", "classify cover"):
        assert "ascover" in loaded[name][0], name
        assert not ({"artin_schreier", "superelliptic", "secover", "dirichlet"}
                    & loaded[name][0]), name
    for name in ("oracle se", "classify se cover"):
        assert "secover" in loaded[name][0], name
        assert not {"artin_schreier", "superelliptic", "ascover"} & loaded[name][0], name
    assert "secover" not in loaded["census as"][0]
    assert "ascover" not in loaded["census se"][0]
    assert not {"artin_schreier", "ascover"} & loaded["classify"][0]
    for name, (_, stdlib) in loaded.items():
        assert not {"dataclasses", "inspect"} & stdlib, name
        assert ("fractions" in stdlib) == (name == "verify-kernel"), name


@pytest.mark.parametrize("argv", [
    ("census", "as", "--q", "2", "--max-m", "-1"),
    ("census", "se", "--q", "2", "--max-m", "-1"),
    ("classify", "--sample", "-1", "--q", "2", "--n", "3", "--max-m", "3"),
    ("classify", "--sample", "2", "--n", "3", "--max-m", "-2"),
    ("classify", "--sample", "1", "--n", "5", "--max-m", "-4"),
    ("classify", "--sample", "1", "--max-m", "-1"),
    ("classify", "--sample", "0", "--max-m", "-2"),  # draws nothing, checks --max-m
])
def test_negative_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be >= 0" in err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.sampled_from([2, 4, 8]) | st.integers(-2, 9),
       st.sampled_from([3, 5, 7]) | st.integers(-3, 8), st.integers(-6, 8))
def test_small_sample_and_census_options_exit_0_2_or_3(sample, q, n, max_m):
    # the valid q and n are drawn as often as the rest
    for argv in (("classify", "--sample", sample, "--q", q, "--n", n, "--max-m", max_m),
                 ("census", "se", "--q", q, "--n", n, "--max-m", max_m)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert code == 2 or max_m >= 0, argv
        assert (code == 0) == (out.getvalue() != ""), (argv, err.getvalue())


def _run_capped(script: str, *argv) -> subprocess.CompletedProcess:
    """``python -c script argv...`` in a fresh process whose address space is
    capped at 1 GiB, so that a q^m with a huge m fails fast, not the machine."""
    capped = "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
    return subprocess.run([sys.executable, "-c", capped + script, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=30)


def test_a_huge_exponent_is_refused_before_its_power():
    # q^m with m = 10^11 has ~10^11 bits, 12.5 GB: each guard must refuse m
    # from its size, not from the power
    m = 10 ** 11
    for argv, message in [
        (("census", "as", "--q", "3", "--p", "3", "--mode", "enumerate", "--max-m", str(m)),
         f"census enumeration guard exceeded: q^m_max = 3^{m} > 4194304"),
        (("census", "se", "--q", "2", "--n", "3", "--max-m", str(m)),
         f"census_se guarded at q^m <= 2^16, got 2^{m}"),
        (("classify", "--sample", "1", "--q", "2", "--n", "3", "--max-m", str(m)),
         f"random cover guarded at q^m <= 2^16, got 2^{m}"),
    ]:
        proc = _run_capped("from ordcensus.cli import main\nsys.exit(main(sys.argv[1:]))", *argv)
        assert (proc.returncode, proc.stdout) == (3, ""), (argv, proc.stderr)
        assert proc.stderr == f"resource guard: {message}\n"
    proc = _run_capped(f"""
from ordcensus.errors import DomainError, ResourceGuardError
from ordcensus.fields import FieldSpec
from ordcensus.oracle import count_points_as
from ordcensus.polys import places_of_degree
from ordcensus.serialize import cover_from_dict
F2 = FieldSpec(2)
c = cover_from_dict({{"q": 2, "p": 2, "branch": [{{"place": "0,1", "local": [1]}}]}})
for call, error in ((lambda: FieldSpec(2, {m}), DomainError),
                    (lambda: places_of_degree(F2, {m}), ResourceGuardError),
                    (lambda: count_points_as(c, {m}), ResourceGuardError)):
    try:
        call()
    except error as exc:
        print(exc)
""")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [f"q = 2^{m} exceeds the enumeration limit 1048576",
                                        f"enumerating irreducibles of degree {m} over F_2",
                                        f"point-count sweep q^k = 2^{m} exceeds 1048576"]


def test_census_determinism(capsys):
    args = ("census", "se", "--q", "2", "--n", "3", "--max-m", "5",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_classify_cover_file(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "parts": ["1,1,1", "0,1,1"]}))
    code, out, _ = run(capsys, "classify", "--cover", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "superelliptic"
    assert data["genus"] == 2
    assert data["a_number"] == 0
    assert data["ordinary"] is True


def test_classify_as_cover(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"q": 2, "p": 2,
                                "branch": [{"place": "0,1", "local": [1]},
                                           {"place": "1,1", "local": [1]}],
                                "infinity": None}))
    code, out, _ = run(capsys, "classify", "--cover", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "artin-schreier"
    assert data["genus"] == 1 and data["m"] == 4
    assert data["ordinary"] is True


def test_classify_sample_deterministic(capsys):
    args = ("classify", "--sample", "5", "--q", "2", "--n", "3",
            "--max-m", "4", "--seed", "11")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert len(json.loads(out1)) == 5


def test_classify_sample_defaults(capsys):
    _, given, _ = run(capsys, "classify", "--sample", "5", "--q", "2", "--n", "3",
                      "--max-m", "4", "--seed", "0")
    code, defaulted, _ = run(capsys, "classify", "--sample", "5")
    assert code == 0
    assert defaulted == given


@pytest.mark.parametrize("option", ["--q", "--n", "--max-m", "--seed"])
def test_sample_options_with_cover_are_usage_errors(tmp_path, capsys, option):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "parts": ["1,1,1", "0,1,1"]}))
    code, out, err = run(capsys, "classify", "--cover", str(path), option, "3")
    assert (code, out) == (2, "")
    assert err == "error: --q, --n, --max-m and --seed apply to --sample only\n"


@pytest.mark.parametrize("q,max_m", [(4, 9), (8, 6), (2, 17)])
def test_classify_sample_guard_fires_before_enumeration(capsys, monkeypatch, q, max_m):
    from ordcensus import superelliptic

    def no_work(*args):
        raise AssertionError("monic polynomials sieved before the guard")
    # the sampler's one way to the monic polynomials of a degree
    monkeypatch.setattr(superelliptic, "place_sieve", no_work)
    code, _, err = run(capsys, "classify", "--sample", "1", "--q", str(q),
                       "--max-m", str(max_m))
    assert code == 3
    assert "guard" in err


def test_oracle_command(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"q": 2, "p": 2,
                                "branch": [{"place": "0,1", "local": [0, 0, 1]}],
                                "infinity": None}))
    code, out, _ = run(capsys, "oracle", "--cover", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 1
    assert data["N_k"] == [3, 9]
    assert data["L"] == [1, 0, 2]
    assert data["p_rank"] == 0
    assert data["ordinary_by_criterion"] is False
    assert data["agree"] is True


def test_cover_of_a_degree_10_place_builds_no_residue_field(tmp_path, capsys, monkeypatch):
    # the first place of degree 10 over F_4; its residue field is F_{2^20},
    # and ext_field_for is the one entry to arithmetic in it
    from ordcensus import polys

    def no_field(*args):
        raise AssertionError("residue field built")
    monkeypatch.setattr(polys, "ext_field_for", no_field)
    cover = {"q": 4, "p": 2, "branch": [{"place": "1,0,0,0,0,0,0,2,1,0,1", "local": [5]}],
             "infinity": None}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    code, out, err = run(capsys, "classify", "--cover", str(path))
    assert (code, err) == (0, "")
    expected = dict(cover, kind="artin-schreier", genus=9, m=20, ordinary=True)
    assert out == json.dumps(expected, indent=2) + "\n"
    code, out, err = run(capsys, "oracle", "--cover", str(path))
    assert (code, out) == (3, "")
    assert err == "resource guard: point-count sweep q^k = 4^18 exceeds 1048576\n"


def test_oracle_sweeps_build_no_field_object(tmp_path, capsys, monkeypatch):
    # every F_{4^k} swept is the shared absolute field; an SE cover has no
    # residue field to compute in either
    from ordcensus import polys

    def no_field(*args):
        raise AssertionError("residue field built")
    monkeypatch.setattr(polys, "ext_field_for", no_field)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"n": 3, "parts": ["3,2,1", "0,1"], "q": 4}))
    code, out, err = run(capsys, "oracle", "--cover", str(path))
    assert (code, err) == (0, "")
    expected = {"kind": "superelliptic", "genus": 2, "N_k": [4, 10, 43, 274],
                "L": [1, -1, -3, -4, 16], "p_rank": 2, "ordinary_by_criterion": True,
                "agree": True}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_oracle_disagreement_prints_its_report_and_exits_4(tmp_path, capsys, monkeypatch):
    from ordcensus import ascover
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"q": 2, "p": 2,
                                "branch": [{"place": "0,1", "local": [0, 0, 1]}],
                                "infinity": None}))
    is_ordinary = ascover.is_ordinary
    monkeypatch.setattr(ascover, "is_ordinary", lambda c: not is_ordinary(c))
    code, out, err = run(capsys, "oracle", "--cover", str(path))
    assert code == 4
    data = json.loads(out)
    assert data["agree"] is False
    assert data["detail"] == "criterion says ordinary=True but p-rank is 0 of genus 1"
    assert data["detail"] in err


def test_classify_routes_disagreeing_exits_4(tmp_path, capsys, monkeypatch):
    from ordcensus import secover
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "parts": ["1,1,1", "0,1,1"]}))
    monkeypatch.setattr(secover, "a_number", lambda c: 1)
    code, out, err = run(capsys, "classify", "--cover", str(path))
    assert code == 4
    assert out == ""
    assert "classification routes disagree" in err


def test_classify_cover_with_few_parts_at_a_large_n(tmp_path):
    # the invariants sum over the two non-constant parts, not over all
    # (n-1)^2 index pairs, which would take minutes at n = 20011
    n = 20011
    parts = ["1"] * (n - 1)
    parts[0], parts[n // 2] = "0,1", "1,1"
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"q": 2, "n": n, "parts": parts}))
    proc = subprocess.run([sys.executable, "-m", "ordcensus.cli", "classify", "--cover", str(cover)],
                          env=_src_env(), capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    data = json.loads(proc.stdout)
    assert (data["m"], data["genus"]) == (3, (n - 1) // 2)
    assert len(data["d_i"]) == n - 1 and sum(data["d_i"]) == data["genus"]
    assert (data["a_number"] == 0) == data["ordinary"]


def test_oracle_missing_file(capsys):
    code, _, err = run(capsys, "oracle", "--cover", "/nonexistent.json")
    assert code == 2


def test_verify_kernel(capsys):
    code, out, _ = run(capsys, "verify-kernel", "--n", "7")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 7, "rank": 4, "pass": True}


def test_verify_kernel_failure_prints_its_report_and_exits_4(capsys, monkeypatch):
    from ordcensus import superelliptic
    monkeypatch.setattr(superelliptic, "verify_kernel_lemma", lambda n: False)
    code, out, err = run(capsys, "verify-kernel", "--n", "7")
    assert code == 4
    assert json.loads(out) == {"n": 7, "rank": 4, "pass": False}
    assert err == "invariant violation: kernel lemma verification failed for n = 7\n"


def test_verify_kernel_guard(capsys):
    code, _, _ = run(capsys, "verify-kernel", "--n", "103")
    assert code == 3


def test_report_table1(capsys):
    code, out, _ = run(capsys, "report-table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[2]) < 1e-5  # phi1 deviation
        assert float(fields[4]) < 1e-5  # P(AS) modified deviation
        assert float(fields[6]) < 1e-5  # CEZB deviation


def test_report_table1_json_rows_are_the_csv_rows(capsys):
    _, csv_out, _ = run(capsys, "report-table1")
    code, json_out, _ = run(capsys, "report-table1", "--format", "json")
    assert code == 0
    header, *lines = csv_out.strip().splitlines()
    csv_rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [{k: str(v) for k, v in row.items()} for row in json.loads(json_out)] == csv_rows


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py, loaded in this process; sys.path and sys.modules
    are restored after the test."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, spec.name, module)  # a dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def test_benchmark_jobs_print_the_reference_bytes(tmp_path, capsys, monkeypatch):
    """Every benchmark job at the default seed, run in this process, prints
    the stdout whose SHA-256 ``perfbench/reference.json`` records."""
    import hashlib
    workloads = _perfbench_module("workloads", monkeypatch)
    digests = json.loads((PERFBENCH / "reference.json").read_text())["digests"]
    monkeypatch.chdir(tmp_path)
    for name in workloads.WORKLOADS:
        for job in workloads.jobs(name, 0):
            for fname, text in job.files.items():
                (tmp_path / fname).write_text(text)
            code, out, _ = run(capsys, *job.args)
            assert code == 0, job.key()
            assert hashlib.sha256(out.encode()).hexdigest() == digests[job.key()], job.key()


def test_benchmark_layer_rows_and_trace_hooks_reach_the_package(monkeypatch):
    """The benchmark reads the package by name: ``perfbench/layers.py``
    imports its row functions, and ``perfbench/tracer.py`` hooks labels that
    it can wrap only while each is a plain function of its module."""
    import ast
    import importlib
    import inspect
    layers = _perfbench_module("layers", monkeypatch)
    per_layer = {row["name"] for row in
                 json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    values = layers.rows(0)
    assert set(values) <= per_layer
    assert all(v > 0 for v in values.values()), values
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    hooks = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "hooks"]
    labels = [key.value for key in hooks[0].keys]
    assert {"polys.ext_field_for", "oracle.count_points_as", "oracle.count_points_se",
            "artin_schreier.enumerate_covers"} <= set(labels)
    for label in labels:
        layer, attr = label.split(".")
        module = importlib.import_module(f"ordcensus.{layer}")
        fn = getattr(module, attr)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, label
    # the fields.ext_*_ns rows time the field the oracle sweeps
    from ordcensus import fields, oracle
    ext = oracle.extension_field(fields.FieldSpec(2), 12)
    E = fields.extension(fields.FieldSpec(2), 12)[0]
    assert (ext.size, ext.mul, ext.add) == (E.q, E.mul, E.add)
    assert [ext.from_index(n) for n in range(E.q)] == list(range(E.q))


def test_output_file(tmp_path, capsys, monkeypatch):
    # a relative path is taken from the working directory; no environment
    # variable (ORDCENSUS_OUTDIR once) moves it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ORDCENSUS_OUTDIR", str(tmp_path / "elsewhere"))
    code, out, _ = run(capsys, "verify-kernel", "--n", "5", "--output", "k5.json")
    assert code == 0
    assert out == ""
    data = json.loads((tmp_path / "k5.json").read_text())
    assert data["pass"] is True


@pytest.mark.parametrize("target", ["a_directory", "missing/k5.json"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, target):
    (tmp_path / "a_directory").mkdir()
    code, out, err = run(capsys, "verify-kernel", "--n", "5",
                         "--output", str(tmp_path / target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write output file {tmp_path / target}: ")
    assert "Traceback" not in err


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["census", "nonsense", "--q", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("census", "se", "--q", "2", "--max-m", "3", "--include-infinity"),
    ("census", "se", "--q", "2", "--max-m", "3", "--p", "3"),
    ("census", "se", "--q", "2", "--max-m", "3", "--mode", "both"),
    ("census", "as", "--q", "2", "--max-m", "3", "--n", "5"),
    ("classify", "--cover", "COVER", "--sample", "1"),
])
def test_options_a_command_would_ignore_are_usage_errors(tmp_path, capsys, argv):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "parts": ["1,1,1", "0,1,1"]}))
    with pytest.raises(SystemExit) as exc:
        main([str(path) if a == "COVER" else a for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# places over F_2, F_3 and F_4, of degree 1 and 2
_PLACES = {2: ["0,1", "1,1", "1,1,1"], 3: ["0,1", "1,1", "2,1", "1,0,1"],
           4: ["0,1", "1,1", "2,1", "3,1"]}
_FAULTS = [None] * 4 + ["q", "p", "n", "place", "index", "repeat", "infinity", "shape"]
_BAD = ["2", 2.0, None, True, -1, 0, 1, 6, 2 ** 40, [2], {}, "", "x", "1,-1", "0,1,0", "0,0,1"]


@st.composite
def _hostile_covers(draw):
    """Cover JSON of small genus over F_2, F_3 and F_4: valid covers, and
    covers with one fault (a bad q, p or n, a bad place text, a repeated
    place, an out-of-range or non-integer index, a bad infinity part, or
    data of the wrong shape).  Places are listed in any order."""
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "shape":
        return draw(st.sampled_from([[], "cover", 3, {}, {"q": 2}, {"q": 2, "p": 2, "branch": {}}]))
    bad = st.sampled_from(_BAD) | st.text(max_size=4)
    if draw(st.booleans()):
        q, n = draw(st.sampled_from([2, 4])), draw(st.sampled_from([3, 5]))
        places = draw(st.lists(st.sampled_from(_PLACES[q]), unique=True, max_size=n - 1))
        entries = draw(st.permutations(places + ["1"] * (n - 1 - len(places))))
        data = {"q": q, "n": n, "parts": entries}
    else:
        q, p = draw(st.sampled_from([(2, 2), (3, 3), (4, 2)]))
        entries = []
        for text in draw(st.lists(st.sampled_from(_PLACES[q]), unique=True, max_size=2)):
            norm = q ** text.count(",")
            order = draw(st.sampled_from([d for d in (1, 2, 3) if d % p]))
            local = [0 if j % p == 0 else draw(st.integers(0, norm - 1)) for j in range(1, order)]
            entries.append({"place": text, "local": local + [draw(st.integers(1, norm - 1))]})
        data = {"q": q, "p": p, "branch": draw(st.permutations(entries))}
        if not entries or draw(st.booleans()):
            data["infinity"] = [draw(st.integers(1, q - 1))]
    if fault in ("q", "p", "n"):
        data[fault] = draw(bad)
    elif fault == "infinity":
        data["infinity"] = draw(st.lists(st.integers(-1, q) | bad, max_size=3) | bad)
    elif fault and entries:
        i = draw(st.integers(0, len(entries) - 1))
        if fault == "repeat":
            entries.append(entries[i])
        elif "parts" in data:
            entries[i] = draw(bad)
        elif fault == "place":
            entries[i]["place"] = draw(bad)
        else:
            local = entries[i]["local"]
            local[draw(st.integers(0, len(local) - 1))] = draw(st.integers(-2, 20) | bad)
    return data


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_hostile_covers())
def test_hostile_cover_json_exits_0_2_or_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cover.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        for command in ("classify", "oracle"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--cover", path])
            assert code in (0, 2, 3), (command, data, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert (code == 0) == (out.getvalue() != ""), (command, data)


@pytest.mark.parametrize("argv", [
    ("census", "as", "--q", "2", "--max-m", "400"),  # more than a pipe's buffer
    ("constants", "--q", "3", "--p", "3"),           # written only at the flush
    ("--help",),                                     # argparse's own output
    ("census", "as", "--help"),
])
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    # stdout buffered, as a pipe's is by default, and unbuffered, where
    # argparse's own print_help would drop the failed write of --help and exit 0
    env = {k: v for k, v in _src_env().items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader before the first byte is written
        try:
            proc = subprocess.run([sys.executable, "-m", "ordcensus.cli", *argv],
                                  env={**env, **unbuffered}, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, ""), unbuffered
