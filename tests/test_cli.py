"""Command-line driver: subcommands, output formats, exit codes."""

import argparse
import ast
import contextlib
import inspect
import io
import gc
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kacdepth import Quiver, cli, toric_orbit_count
from kacdepth.cli import build_parser, main
from kacdepth.oring import GuardError, ORing


@pytest.fixture()
def kron_file(tmp_path):
    path = tmp_path / "kronecker2.json"
    path.write_text('{"vertices": 2, "arrows": [[0, 1], [0, 1]]}')
    return str(path)


@pytest.fixture()
def point_file(tmp_path):
    path = tmp_path / "point.json"
    path.write_text('{"vertices": 1, "arrows": []}')
    return str(path)


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text('{"vertices": 2, "arrows": [[0, 1]]}')
    return str(path)


def test_kac_text(kron_file, capsys):
    assert main(["kac", "--quiver", kron_file, "--alpha", "2"]) == 0
    out = capsys.readouterr().out
    assert "q^2+2q+1" in out
    assert "routes agree      = True" in out


def test_kac_json_schema(kron_file, capsys):
    assert main(["kac", "--quiver", kron_file, "--alpha", "2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "kacdepth/1"
    assert report["polynomial"] == "q^2+2q+1"
    assert len(report["census"]) == 4
    assert report["ok"] is True
    # polynomial serialization: [exponent, numerator, denominator] triples
    assert report["polynomial_triples"] == [[0, "1", "1"], [1, "2", "1"], [2, "1", "1"]]


def test_asymptotic(kron_file, capsys):
    assert main(["asymptotic", "--quiver", kron_file]) == 0
    out = capsys.readouterr().out
    assert "A_Q = (q+1)/(q-1)" in out
    assert "B_mu = 1+q^-1" in out


def test_verify_exp_identity(a2_file, capsys):
    code = main(
        [
            "verify",
            "exp-identity",
            "--quiver",
            a2_file,
            "--p",
            "2",
            "--alpha",
            "2",
            "--bound",
            "1,1",
        ]
    )
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_verify_generic_fiber(a2_file, capsys):
    code = main(
        [
            "verify",
            "generic-fiber",
            "--quiver",
            a2_file,
            "--p",
            "3",
            "--alpha",
            "1",
            "--lam",
            "1,-1",
        ]
    )
    assert code == 0


def test_verify_thm41(kron_file):
    assert main(["verify", "thm41", "--quiver", kron_file]) == 0


def test_shelling(kron_file, capsys):
    assert main(["shelling", "--quiver", kron_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["facets"] == 2
    assert report["ok"] is True


def test_rank_table(capsys):
    assert main(["rank-table", "--g", "1", "--alpha", "3"]) == 0
    out = capsys.readouterr().out
    assert "A_{1,3,3} = q^7+q^6+3q^5+2q^4+2q^3" in out


def test_e_series(kron_file):
    assert main(
        ["e-series", "--quiver", kron_file, "--alpha", "2", "--mode", "zero-fiber", "--order", "10"]
    ) == 0


def test_oracle_orbit_count(kron_file, capsys):
    assert main(["oracle", "orbit-count", "--quiver", kron_file, "--p", "2,3", "--alpha", "2"]) == 0
    out = capsys.readouterr().out
    assert "orbits=9" in out and "orbits=16" in out


def test_oracle_moment_fiber(a2_file, capsys):
    assert main(
        ["oracle", "moment-fiber", "--quiver", a2_file, "--p", "3", "--alpha", "1", "--lam", "1,-1"]
    ) == 0
    assert "fiber size 2" in capsys.readouterr().out


def test_kac_disconnected_reports_components(tmp_path, capsys):
    path = tmp_path / "disc.json"
    path.write_text('{"vertices": 3, "arrows": [[0, 1], [2, 2]]}')
    assert main(["kac", "--quiver", str(path), "--alpha", "2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["polynomial"] == "0"
    assert report["component_product"] == "2q^2"
    assert [c["polynomial"] for c in report["components"]] == ["2", "q^2"]


def test_malformed_quiver_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": "two"}')
    assert main(["kac", "--quiver", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["kac", "--quiver", str(missing)]) == 2


def test_guard_exits_3(kron_file):
    assert main(
        ["oracle", "orbit-count", "--quiver", kron_file, "--p", "2", "--alpha", "2", "--guard", "3"]
    ) == 3


def test_kac_chain_guard_exits_3(kron_file, capsys):
    assert main(["kac", "--quiver", kron_file, "--guard", "3"]) == 3
    assert "--guard" in capsys.readouterr().err


def _no_ring(*args, **kwargs):
    raise AssertionError("this route builds no ring tables")


def test_orbit_count_guard_counts_primality(point_file, monkeypatch, capsys):
    # one vertex, no arrows: one torus element, one mask and one word, but
    # the primality test of p = 1000003 tries up to isqrt(p) = 1000 divisors
    monkeypatch.setattr(ORing, "__init__", _no_ring)
    args = ["oracle", "orbit-count", "--quiver", point_file, "--p", "1000003", "--alpha", "1"]
    start = time.perf_counter()
    assert main(args + ["--guard", "1000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "orbit count estimate 1001 > limit 1000; raise --guard" in capsys.readouterr().err
    assert main(args + ["--guard", "1001"]) == 0


def test_orbit_count_estimate_counts_class_states(tmp_path, capsys):
    # one class of 30 parallel arrows: 2 torus elements times 31 states times
    # 2^2 squared words, plus isqrt(2); counted as 2^30 masks it was refused
    path = tmp_path / "kronecker30.json"
    path.write_text(json.dumps(_kronecker(30)))
    args = ["oracle", "orbit-count", "--quiver", str(path), "--p", "2", "--alpha", "2"]
    start = time.perf_counter()
    assert main([*args, "--format", "json"]) == 0
    assert time.perf_counter() - start < 1.0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["count"] == row["polynomial_at_p"]
    with pytest.raises(GuardError) as refused:
        toric_orbit_count(Quiver.from_json(_kronecker(30)), 2, 2, guard=248)
    assert refused.value.estimate == 249


@pytest.mark.parametrize(
    "command",
    [
        ["oracle", "orbit-count"],
        ["oracle", "moment-fiber"],
        ["verify", "exp-identity"],
        ["verify", "generic-fiber", "--lam=1,-1"],
    ],
)
def test_empty_prime_list_is_a_user_error(command, a2_file, capsys):
    # "--p ," used to check nothing and report "ok": true with no rows
    assert main([*command, "--quiver", a2_file, "--p", ","]) == 2
    assert "--p lists no primes" in capsys.readouterr().err


def test_orbit_count_composite_modulus_is_a_user_error(kron_file, capsys):
    args = ["oracle", "orbit-count", "--quiver", kron_file, "--p", "4", "--alpha", "1"]
    assert main(args) == 2
    assert "4 is not prime" in capsys.readouterr().err


def test_moment_fiber_guard_estimate(a2_file, monkeypatch, capsys):
    # A2 at rank (1,1): h = 1, R = 2 alpha = 4, C = alpha h = 2, so the estimate
    # is 3^2 * 4 * 3 * 2 + isqrt(3) = 217; the route builds no ring tables
    monkeypatch.setattr(ORing, "__init__", _no_ring)
    args = ["oracle", "moment-fiber", "--quiver", a2_file, "--p", "3", "--alpha", "2"]
    assert main(args + ["--guard", "216"]) == 3
    assert "fiber enumeration estimate 217 > limit 216; raise --guard" in capsys.readouterr().err
    assert main(args + ["--guard", "217"]) == 0
    assert "fiber size 21" in capsys.readouterr().out


def test_moment_fiber_estimate_counts_orbit_representatives(kron_file, capsys):
    # Kronecker 2 at alpha 3 solves (alpha + 1)^2 = 16 systems, one per orbit
    # representative, not one per each of the p^6 points: the estimate
    # 7^3 * 6 * 7 * 6 + isqrt(7) = 86438 is far below the default guard,
    # where the points (29647550) were refused
    args = ["oracle", "moment-fiber", "--quiver", kron_file, "--p", "7", "--alpha", "3"]
    assert main(args) == 0
    assert capsys.readouterr().out == "p=7: fiber size 46101601\n"
    assert main(args + ["--guard", "86437"]) == 3
    assert "fiber enumeration estimate 86438 > limit 86437" in capsys.readouterr().err


def test_arrowless_generic_fiber_refused_fast(tmp_path, capsys):
    # no y unknowns, but the identity check forms numbers beyond p^alpha at
    # q = p, with millions of digits: the estimate counts p^alpha for them
    path = tmp_path / "two_points.json"
    path.write_text('{"vertices": 2, "arrows": []}')
    args = ["verify", "generic-fiber", "--quiver", str(path), "--lam=1,-1"]
    start = time.perf_counter()
    assert main(args + ["--p", "100000007", "--alpha", "300000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "fiber enumeration estimate >= 100000007^300000" in capsys.readouterr().err
    assert main(args + ["--p", "3", "--alpha", "2"]) == 0


def test_generic_test_refused_fast(tmp_path, capsys):
    # 40 points: the genericity test walks 2^40 sub-vectors of the rank vector,
    # while the vertex count and the fiber estimate admit the input; unguarded
    # it was still running after 20 s
    path = tmp_path / "forty_points.json"
    path.write_text(json.dumps({"vertices": 40, "arrows": []}))
    lam = ",".join(["1"] * 39 + ["-39"])
    args = ["verify", "generic-fiber", "--quiver", str(path), f"--lam={lam}"]
    start = time.perf_counter()
    assert main(args + ["--p", "1000003", "--alpha", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "generic test estimate >= 2^40 > limit 16777216" in capsys.readouterr().err


# Kronecker 2 is one class of two parallel arrows: the depth limit and the
# Hilbert series each walk C(2 + 2, 2) = 6 state pairs N <= N'; thm41 checks
# the Hilbert series first, and the certificate of shelling checks its order
# complex of 2! * 2 entries, then the Hilbert series
SYMBOLIC_GUARDS = [
    (["asymptotic"], "asymptotic sum estimate 6 > limit 5"),
    (["verify", "thm41"], "hilbert series estimate 6 > limit 5"),
    (["shelling"], "hilbert series estimate 6 > limit 5"),
]


@pytest.mark.parametrize("command, message", SYMBOLIC_GUARDS)
def test_symbolic_routes_use_guard(command, message, kron_file, capsys):
    limit = int(message.rsplit(" ", 1)[1])
    assert main([*command, "--quiver", kron_file, "--guard", str(limit)]) == 3
    assert f"{message}; raise --guard" in capsys.readouterr().err
    assert main([*command, "--quiver", kron_file, "--guard", str(limit + 1)]) == 0


@pytest.mark.parametrize("guard", [[], ["--guard", "10"]])
def test_shelling_kronecker12_refused_fast(guard, tmp_path, capsys):
    path = tmp_path / "kronecker12.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1]] * 12}))
    start = time.perf_counter()
    assert main(["shelling", "--quiver", str(path), *guard]) == 3
    assert time.perf_counter() - start < 1.0
    assert "order complex estimate" in capsys.readouterr().err


KAC_REFUSALS = [
    # one loop: 2 * 1 * 99999 subset steps, each on a top layer of
    # ceil(17 * (99999 + 1) / 64) = 26563 words; unguarded it runs for seconds
    ({"vertices": 1, "arrows": [[0, 0]]}, "100000", "chain sum estimate 5312546874"),
    # K4 passes the chain sum, but its census has up to C(6, 3) * 100^3
    # = 2 * 10^7 strata; the estimate is that times 6 arrows
    (
        {"vertices": 4, "arrows": [[i, j] for i in range(4) for j in range(i + 1, 4)]},
        "100",
        "tree census estimate 120000000",
    ),
]


@pytest.mark.parametrize("quiver, alpha, message", KAC_REFUSALS)
def test_kac_refused_fast(quiver, alpha, message, tmp_path, capsys):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver))
    start = time.perf_counter()
    assert main(["kac", "--quiver", str(path), "--alpha", alpha]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"{message} > limit 16777216; raise --guard" in capsys.readouterr().err


def test_thm41_kronecker10_at_default_guard(tmp_path, capsys):
    # the Hilbert side walks C(12, 2) = 66 class-state pairs, where building
    # the order complex of 10! facets was refused
    path = tmp_path / "kronecker10.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1]] * 10}))
    assert main(["verify", "thm41", "--quiver", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["equal"]


def test_shelling_kronecker7_at_default_guard(tmp_path, capsys):
    path = tmp_path / "kronecker7.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1]] * 7}))
    assert main(["shelling", "--quiver", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["facets"] == 5040
    assert report["ok"]


def test_exp_identity_refused_before_chain_sum(tmp_path, capsys):
    # the chain sum of one loop at alpha 10^5 takes seconds; the fiber
    # estimate 2^(10^5) is refused before any A-polynomial is built
    path = tmp_path / "loop.json"
    path.write_text('{"vertices": 1, "arrows": [[0, 0]]}')
    args = ["verify", "exp-identity", "--quiver", str(path), "--bound", "1"]
    start = time.perf_counter()
    assert main(args + ["--alpha", "100000", "--guard", "10"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "fiber enumeration estimate >= 2^100000" in capsys.readouterr().err
    assert main(args + ["--alpha", "2", "--guard", "48"]) == 3
    assert "fiber enumeration estimate 49 > limit 48" in capsys.readouterr().err
    assert main(args + ["--alpha", "2", "--guard", "49"]) == 0


@pytest.mark.parametrize("bound", ["0,0", "0,-1", "-1,1"])
def test_exp_identity_bound_selecting_no_rank_vector_is_a_user_error(bound, a2_file, capsys):
    # an all-zero bound walked no rank vector and reported "ok": true
    assert main(["--format", "json", "verify", "exp-identity", "--quiver", a2_file, f"--bound={bound}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bound selects no rank vector\n"


RANK_VECTOR_REFUSALS = [(22, 100, 127), (4, 7, 15)]


@pytest.mark.parametrize("nvertices, guard, estimate", RANK_VECTOR_REFUSALS)
def test_exp_identity_counts_rank_vectors_first(nvertices, guard, estimate, tmp_path, capsys):
    # n isolated vertices have 2^n - 1 rank vectors at the default bound; the
    # count is refused before any is walked, multiplied out only until it
    # passes the guard (22 vertices ran past 65 s when it was not counted)
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"vertices": nvertices, "arrows": []}))
    start = time.perf_counter()
    assert main(["verify", "exp-identity", "--quiver", str(path), f"--guard={guard}"]) == 3
    assert time.perf_counter() - start < 1.0
    message = f"rank vectors estimate {estimate} > limit {guard}; raise --guard"
    assert message in capsys.readouterr().err


EXP_WALK_REFUSALS = [(13, 2**24, 67100672), (3, 50, 56)]


@pytest.mark.parametrize("nvertices, guard, estimate", EXP_WALK_REFUSALS)
def test_exp_identity_counts_the_exp_walk(nvertices, guard, estimate, tmp_path, capsys):
    # TSeries.exp scans each of the box - 1 weighted terms at each of the box
    # exponents; 13 isolated vertices (box 2^13) ran 7.7 s when it was not
    # counted, and each vertex more about doubles that
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"vertices": nvertices, "arrows": []}))
    start = time.perf_counter()
    assert main(["verify", "exp-identity", "--quiver", str(path), f"--guard={guard}"]) == 3
    assert time.perf_counter() - start < 1.0
    message = f"Exp walk estimate {estimate} > limit {guard}; raise --guard"
    assert message in capsys.readouterr().err


def test_exp_identity_refuses_a_later_prime_before_any_count(tmp_path, capsys, monkeypatch):
    # every prime's fiber estimates are checked before the first count
    path = tmp_path / "triangle.json"
    path.write_text('{"vertices": 3, "arrows": [[0, 1], [1, 2], [0, 2]]}')
    counts = []
    monkeypatch.setattr(cli.moment, "moment_fiber_count", lambda *args, **kwargs: counts.append(args))
    assert main(["verify", "exp-identity", "--quiver", str(path), "--p", "2,1000003"]) == 3
    assert counts == []
    # the rank vector (1, 1, 1) solves 2^3 systems, fewer than p^alpha, so the
    # estimate counts p = 1000003: 1000003 * R 3 * (C 3 + 1) * 3 + isqrt(p)
    assert "fiber enumeration estimate 36001108 > limit 16777216" in capsys.readouterr().err


@pytest.mark.parametrize("oracle, layer, count", [
    ("orbit-count", "toric", "toric_orbit_count"),
    ("moment-fiber", "moment", "moment_fiber_count"),
])
@pytest.mark.parametrize("primes, code, message", [
    ("2,1000003", 3, " estimate >= 100000"),
    ("2,4", 2, "error: 4 is not prime"),
])
def test_oracles_refuse_a_later_prime_before_any_count(
    oracle, layer, count, primes, code, message, tmp_path, capsys, monkeypatch
):
    # every prime's work estimate, then every prime's primality, is checked
    # before the first count; the library counts take one prime each
    path = tmp_path / "triangle.json"
    path.write_text('{"vertices": 3, "arrows": [[0, 1], [1, 2], [0, 2]]}')
    counts = []
    monkeypatch.setattr(getattr(cli, layer), count, lambda *args, **kwargs: counts.append(args))
    assert main(["oracle", oracle, "--quiver", str(path), "--p", primes, "--alpha", "2"]) == code
    assert counts == []
    assert message in capsys.readouterr().err


HUGE_VERTEX_COUNTS = [10**400, 10**9]
VERTEX_COUNT_COMMANDS = [["kac"], ["verify", "exp-identity"], ["e-series"]]


@pytest.mark.parametrize("nvertices", HUGE_VERTEX_COUNTS, ids=["1e400", "1e9"])
@pytest.mark.parametrize("command", VERTEX_COUNT_COMMANDS)
def test_huge_vertex_count_exits_3(nvertices, command, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": nvertices, "arrows": []}))
    start = time.perf_counter()
    assert main([*command, "--quiver", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"vertex count estimate {nvertices} > limit" in capsys.readouterr().err


def _kronecker(narrows: int) -> dict:
    return {"vertices": 2, "arrows": [[0, 1]] * narrows}


def _cycle(n: int) -> dict:
    return {"vertices": n, "arrows": [[i, (i + 1) % n] for i in range(n)]}


HUGE_ESTIMATES = [
    # str() refuses an int past 4300 digits: the f-string of these three
    # GuardErrors raised ValueError, and the runs ended with exit 2
    (["shelling"], _kronecker(1800), "order complex estimate >= 2^16885 > limit"),
    # a cycle has no parallel arrows, so its 2^14500 states are masks:
    # 2^14500 * 14500 * 1 * ceil(14501 / 64) words
    (["kac"], _cycle(14500), "chain sum estimate >= 2^14521 > limit"),
    # 3^m state pairs for the cycle's m = 9100 one-arrow classes, before the
    # 2-connectivity test, which took 47 s on Kronecker 9100
    (["asymptotic"], _cycle(9100), "asymptotic sum estimate >= 2^14423 > limit"),
    # C(202, 2) = 20301 state pairs at 1 + 200^3 // 1024 = 7813 units each:
    # counted as pairs alone, Kronecker 200 was admitted (about 15 min by the
    # m^5 growth from Kronecker 80's 9.9 s)
    (["asymptotic"], _kronecker(200), "asymptotic sum estimate 158611713 > limit"),
    # the Hilbert estimate comes before the prefactor's gcd, which took 38 s
    (["verify", "thm41"], _kronecker(301), "hilbert series estimate "),
    # the Hilbert side walks the same 3^m state pairs as the depth limit,
    # and is checked first
    (["verify", "thm41"], _cycle(9100), "hilbert series estimate >= 2^14423 > limit"),
]


@pytest.mark.parametrize("command, quiver, message", HUGE_ESTIMATES)
def test_huge_estimates_refused_fast(command, quiver, message, tmp_path, capsys):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver))
    start = time.perf_counter()
    assert main([*command, "--quiver", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err) < 300


@pytest.mark.parametrize("command", [["kac", "--alpha", "4"], ["asymptotic"]])
def test_kronecker30_at_default_guard(command, tmp_path, capsys):
    # one class of 30 arrows: 31 states (chain sum estimate 31 * 30 * 3 * 97
    # words) and C(32, 2) = 496 state pairs at 1 + 30^3 // 1024 = 27 units
    # each (asymptotic sum estimate 13392); over 2^30 masks both were refused
    path = tmp_path / "kronecker30.json"
    path.write_text(json.dumps(_kronecker(30)))
    start = time.perf_counter()
    assert main([*command, "--quiver", str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1.0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    if command[0] == "asymptotic":
        # (q^m - 1) / ((q - 1)(q^(m-1) - 1)), as the mask walk gives for m <= 12
        assert report["A"] == f"({'+'.join(f'q^{e}' for e in range(29, 1, -1))}+q+1)/(q^29-1)"


DOUBLED_K4 = {"vertices": 4, "arrows": [[i, j] for i in range(4) for j in range(i + 1, 4)] * 2}


@pytest.mark.parametrize("quiver", [_kronecker(30), DOUBLED_K4])
def test_thm41_reach_at_default_guard(quiver, tmp_path, capsys):
    # Kronecker 30 (hilbert series estimate 13392) and doubled K4 (six
    # classes of two arrows: C(4, 2)^6 = 46656 pairs at 1 + 10^3 // 1024 = 1
    # unit); summed over exponent multisets of arrow masks, the Hilbert series
    # refused Kronecker 13 and took 2 s on doubled K4
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver))
    start = time.perf_counter()
    assert main(["verify", "thm41", "--quiver", str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["equal"]


@pytest.mark.parametrize("lam", ["1", "1,-1,0"])
def test_moment_fiber_lam_length_is_a_user_error(lam, a2_file, capsys):
    args = ["oracle", "moment-fiber", "--quiver", a2_file, "--p", "3", "--alpha", "1"]
    assert main(args + [f"--lam={lam}"]) == 2
    assert "expected 2, one per vertex" in capsys.readouterr().err


@pytest.mark.parametrize("rank, count", [("1", 1), ("1,1,1", 3)])
def test_moment_fiber_rank_length_is_a_user_error(rank, count, a2_file, capsys):
    args = ["oracle", "moment-fiber", "--quiver", a2_file, "--p", "3", "--alpha", "1"]
    assert main(args + [f"--rank={rank}"]) == 2
    assert f"rank has {count} entries; expected 2, one per vertex" in capsys.readouterr().err


def test_huge_prime_is_a_user_error(point_file, capsys):
    p = str(10**309 + 1)
    args = ["oracle", "moment-fiber", "--quiver", point_file, "--p", p, "--alpha", "1"]
    assert main(args + ["--guard", str(10**700)]) == 2
    assert "is not prime" in capsys.readouterr().err


def test_identity_failure_exits_1(kron_file, monkeypatch, capsys):
    # exit code 1 is reserved for mathematical mismatches in the report
    monkeypatch.setitem(cli.HANDLERS, "kac", lambda args, quiver: ({}, False, ["forced diff"]))
    assert main(["kac", "--quiver", kron_file]) == 1
    assert "forced diff" in capsys.readouterr().out


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def _selected(*path: str) -> argparse.ArgumentParser:
    """The parser of a subcommand path with its arguments, which argparse adds
    only once it selects the path (here for ``--help``)."""
    parser = build_parser()
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit):
        parser.parse_args([*path, "--help"])
    for name in path:
        parser = _subparsers(parser).choices[name]
    return parser


def test_a_call_adds_the_flags_of_its_leaf_alone(kron_file):
    parser = build_parser()
    parser.parse_args(["oracle", "moment-fiber", "--quiver", kron_file, "--rank=1,1"])
    oracle = _subparsers(parser).choices["oracle"]
    filled = {
        name: len(leaf._actions) > 1  # every parser has -h
        for group in (parser, oracle)
        for name, leaf in _subparsers(group).choices.items()
    }
    assert [name for name, full in filled.items() if full] == ["oracle", "moment-fiber"]
    assert len(filled) == 9


def _parser_commands() -> set[str]:
    """Every subcommand the parser accepts, joined with each positional target."""
    commands = set()
    for name in _subparsers(build_parser()).choices:
        parser = _selected(name)
        positional = [a for a in parser._actions if not a.option_strings]
        assert len(positional) <= 1, name
        targets = positional[0].choices if positional else [None]
        commands |= {f"{name} {t}" if t else name for t in targets}
    return commands


def test_handlers_cover_the_parser():
    assert set(cli.HANDLERS) == _parser_commands()


def _flags_read(fn) -> set[str]:
    """The ``args`` attributes fn reads, also through the cli helpers it
    passes ``args`` to, and "quiver" when it loads its quiver parameter."""
    flags = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            flags.add(node.attr)
        elif isinstance(node, ast.Call) and "args" in [getattr(a, "id", None) for a in node.args]:
            flags |= _flags_read(getattr(cli, node.func.id))
        elif isinstance(node, ast.Name) and node.id == "quiver" and isinstance(node.ctx, ast.Load):
            flags.add("quiver")
    return flags


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_each_subcommand_accepts_only_the_flags_it_reads(command):
    parser = _selected(*command.split())
    accepted = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
    # main reads --format and --seed for every command
    assert accepted == _flags_read(cli.HANDLERS[command]) | {"format", "seed"}


@pytest.mark.parametrize(
    "command, flag",
    [
        (["verify", "thm41"], "--alpha=2"),
        (["verify", "thm41"], "--p=3"),
        (["verify", "thm41"], "--bound=1,1"),
        (["verify", "thm41"], "--lam=1,-1"),
        (["verify", "exp-identity"], "--lam=1,-1"),
        (["verify", "generic-fiber"], "--bound=1,1"),
        (["oracle", "orbit-count"], "--rank=1,1"),
        (["oracle", "orbit-count"], "--lam=1,-1"),
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(command, flag, kron_file, capsys):
    # these pairs used to be accepted and the flag silently dropped
    with pytest.raises(SystemExit) as exc:
        main([*command, "--quiver", kron_file, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_report_envelope(kron_file, capsys):
    args = ["--format", "json", "--seed", "7", "verify", "thm41", "--quiver", kron_file]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    keys = list(report)
    assert keys[:2] == ["schema", "command"] and keys[-3:] == ["ok", "text", "seed"]
    assert report["command"] == "verify thm41" and report["seed"] == 7


KRON2 = {"vertices": 2, "arrows": [[0, 1]] * 2}


E_SERIES_REFUSALS = [
    # two vertices: (3^2 - 1)/2 = 4 subset steps (S, B)
    (KRON2, "zero-fiber", 10, 3, "subset walk estimate 4"),
    # 3 class states * 2 arrows * 1 layer * 1 word
    (KRON2, "generic-fiber", 10, 3, "chain sum estimate 6"),
    # before any chain sum: 4 pairs (S, B) times L^2, L = 20000 + alpha b(Q)
    # + |shift| + n + 2 = 20000 + 2 + 0 + 2 + 2; unguarded the truncated
    # products ran past 60 s
    (KRON2, "zero-fiber", 20000, 100, "partition sum estimate 1600960144"),
    # 10 points: each S splits off only {min S}, 1023 pairs times 42^2
    ({"vertices": 10, "arrows": []}, "zero-fiber", 10, 100000,
     "partition sum estimate 1804572"),
    # 40 points are refused before 3^40 is formed
    ({"vertices": 40, "arrows": []}, "zero-fiber", 10, 2**24,
     "subset walk estimate >= 3^40"),
    # a 12-cycle with 6 chords: each block's chain sum is within the guard
    # (but the full one), their sum is not; block by block this ran 10 s
    ({"vertices": 12,
      "arrows": [[i, (i + 1) % 12] for i in range(12)]
      + [[i, (i + 3) % 12] for i in range(0, 12, 2)]},
     "zero-fiber", 10, 2**24, "chain sum estimate 49247472"),
    # a 14-cycle: its 183 connected blocks pair with 49108 sets S, times
    # L^2, L = 10 + 2 + 0 + 14 + 2 = 28, known before any chain sum; the
    # walk over (3^14 - 1)/2 pairs ran 2.6 s
    ({"vertices": 14, "arrows": [[i, (i + 1) % 14] for i in range(14)]},
     "zero-fiber", 10, 2**24, "partition sum estimate 38500672"),
    # a 15-cycle: 211 connected blocks, 98257 pairs times (10 + 2 + 0 + 15
    # + 2)^2, after its 2^15 - 1 connectivity tests
    ({"vertices": 15, "arrows": [[i, (i + 1) % 15] for i in range(15)]},
     "zero-fiber", 10, 2**24, "partition sum estimate 82634137"),
]


@pytest.mark.parametrize("quiver, mode, order, guard, message", E_SERIES_REFUSALS)
def test_e_series_refused_fast(quiver, mode, order, guard, message, tmp_path, capsys):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver))
    args = ["e-series", "--quiver", str(path), "--alpha", "2", "--mode", mode]
    start = time.perf_counter()
    assert main(args + ["--order", str(order), "--guard", str(guard)]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"{message} > limit {guard}; raise --guard" in capsys.readouterr().err


def test_e_series_ten_vertices_at_default_guard(tmp_path, capsys):
    # a 10-cycle with a chord: 1023 blocks, of which the connected ones enter
    # the subset DP; the Bell(10) partition loop took about a minute
    arrows = [[i, (i + 1) % 10] for i in range(10)] + [[0, 5]]
    path = tmp_path / "cycle10.json"
    path.write_text(json.dumps({"vertices": 10, "arrows": arrows}))
    args = ["e-series", "--quiver", str(path), "--alpha", "2", "--order", "10"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "mode=zero-fiber alpha=2 order=10: ok"


@pytest.mark.parametrize(
    "quiver",
    [{"vertices": 0, "arrows": []}, KRON2, {"vertices": 40, "arrows": []}],
)
@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_e_series_depth_is_a_user_error(quiver, alpha, tmp_path, capsys):
    # checked before any guard: the empty quiver printed "ok" at depth 0, and
    # 40 points exited 3 on the subset walk estimate
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver))
    assert main(["e-series", "--quiver", str(path), "--alpha", alpha]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_rank_table_depth_is_a_user_error(alpha, capsys):
    assert main(["rank-table", "--g", "1", "--alpha", alpha]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err


RANK_TABLE_REFUSALS = [
    # 200 * (9 * 2 * 202)^2; unguarded both ran past 15 s
    ("2", "200", 2644099200),
    # 1 * (9 * 10^6 * 3)^2: degree-10^7 polynomials before any step
    ("1000000", "1", 729000000000000),
]


@pytest.mark.parametrize("g, alpha, estimate", RANK_TABLE_REFUSALS)
def test_rank_table_refused_fast(g, alpha, estimate, capsys):
    start = time.perf_counter()
    assert main(["rank-table", "--g", g, "--alpha", alpha]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"rank-table estimate {estimate} > limit 16777216; raise --guard" in err


def test_rank_table_uses_guard(capsys):
    # 5 * (9 * 3 * 7)^2 = 178605 for g = 3 at depth 5
    args = ["rank-table", "--g", "3", "--alpha", "5"]
    assert main([*args, "--guard", "178604"]) == 3
    assert "rank-table estimate 178605 > limit 178604" in capsys.readouterr().err
    assert main([*args, "--guard", "178605"]) == 0
    assert main(args) == 0


def _guard_table_calls():
    """(quiver JSON or None, argv) for every refusal in the guard tables above."""
    for command, message in SYMBOLIC_GUARDS:
        yield _kronecker(2), [*command, "--guard", message.rsplit(" ", 1)[1]]
    for quiver, alpha, _ in KAC_REFUSALS:
        yield quiver, ["kac", "--alpha", alpha]
    for command, quiver, _ in HUGE_ESTIMATES:
        yield quiver, command
    for quiver, mode, order, guard, _ in E_SERIES_REFUSALS:
        yield quiver, ["e-series", "--alpha", "2", "--mode", mode, f"--order={order}", f"--guard={guard}"]
    for g, alpha, _ in RANK_TABLE_REFUSALS:
        yield None, ["rank-table", "--g", g, "--alpha", alpha]
    for nvertices, guard, _ in RANK_VECTOR_REFUSALS + EXP_WALK_REFUSALS:
        yield {"vertices": nvertices, "arrows": []}, ["verify", "exp-identity", f"--guard={guard}"]
    for nvertices in HUGE_VERTEX_COUNTS:
        for command in VERTEX_COUNT_COMMANDS:
            yield {"vertices": nvertices, "arrows": []}, command


@pytest.mark.parametrize("quiver, argv", _guard_table_calls())
def test_every_refusal_carries_route_estimate_and_limit(quiver, argv, tmp_path, monkeypatch):
    raised = []
    init = GuardError.__init__

    def record(self, *args):
        init(self, *args)
        raised.append(self)

    monkeypatch.setattr(GuardError, "__init__", record)
    if quiver is not None:
        path = tmp_path / "quiver.json"
        path.write_text(json.dumps(quiver))
        argv = [*argv, "--quiver", str(path)]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) == 3
    (exc,) = raised
    assert exc.estimate > exc.limit
    assert str(exc).startswith(f"{exc.route} estimate ")
    # the library's message names no flag; the CLI adds the one it has
    assert err.getvalue() == f"error: {exc}; raise --guard\n"


def test_deterministic_output(kron_file, capsys):
    main(["kac", "--quiver", kron_file, "--alpha", "3", "--format", "json", "--seed", "5"])
    first = capsys.readouterr().out
    main(["kac", "--quiver", kron_file, "--alpha", "3", "--format", "json", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["seed"] == 5


@pytest.fixture(scope="module")
def fuzz_quivers(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    shapes = {
        "point": {"vertices": 1, "arrows": []},
        "two_points": {"vertices": 2, "arrows": []},
        "a2": {"vertices": 2, "arrows": [[0, 1]]},
        "loop": {"vertices": 1, "arrows": [[0, 0]]},
        "kron2": {"vertices": 2, "arrows": [[0, 1], [0, 1]]},
    }
    paths = []
    for name, data in shapes.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return paths


VECTORS = st.sampled_from(
    ["", "1", "0", "-1", "1,-1", "-1,1", "1,1", "2,1", "-2,-3", "a,b", "1,,1", "x"]
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(
        [["oracle", "moment-fiber"], ["oracle", "orbit-count"], ["verify", "generic-fiber"]]
    ),
    index=st.integers(0, 4),
    p=st.sampled_from([0, 1, 4, 10**309 + 1, 2**61 - 1, 2, 3, 5, 7, 13]),
    alpha=st.sampled_from([-1, 0, 1, 10**6]),
    rank=st.none() | VECTORS,
    lam=st.none() | VECTORS,
    guard=st.integers(-1, 10**4),
)
def test_oracle_commands_fuzz(fuzz_quivers, command, index, p, alpha, rank, lam, guard):
    # extreme p and alpha, malformed vectors: a clean exit code, no traceback,
    # and no enumeration past the small guard
    argv = [*command, "--quiver", fuzz_quivers[index], f"--p={p}", f"--alpha={alpha}"]
    argv += [f"--guard={guard}"]
    if rank is not None:
        argv.append(f"--rank={rank}")
    if lam is not None:
        argv.append(f"--lam={lam}")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()


STRINGS = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é", "\u2028", "\U0001f4a1"])
SCALARS = (
    st.integers()
    | st.integers(-(2**200), 2**200)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | STRINGS
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=20,
)


KEYS = STRINGS | st.sampled_from(["%", "%s", "%%", "a%(b)s", "100%"])


@st.composite
def shared_rows(draw):
    """Lists of dicts with one key set, in one or in permuted key orders, keys
    with "%", and one tuple or list object in many cells at one depth and,
    through a nested list of such dicts, at several depths."""
    shared = draw(st.lists(SCALARS, min_size=1, max_size=3).map(draw(st.sampled_from([list, tuple]))))
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    permuted = draw(st.booleans())

    def rows(cells):
        orders = [draw(st.permutations(keys)) if permuted else keys for _ in range(draw(st.integers(2, 5)))]
        return [{key: draw(cells) for key in order} for order in orders]

    inner = rows(st.just(shared) | SCALARS)
    outer = rows(st.sampled_from([shared, inner]) | SCALARS)
    return draw(st.sampled_from([outer, {"rows": outer, "shared": shared}, [shared, [outer], inner]]))


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES | shared_rows())
def test_dumps_matches_json_indent(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": [{"b": 1, 2: 3}]}])
def test_dumps_refuses_non_str_key(obj):
    # json.dumps would turn the key into "1"; no report has such a key
    with pytest.raises(TypeError):
        cli._dumps(obj)


@st.composite
def quiver_data(draw):
    """Quiver JSON: valid with at most 6 vertices, or flawed in one place.

    The flaws: zero, negative, string and float vertex counts; vertex counts
    of 10^400 and 10^9 (past the guard, exit 3); out-of-range, null, list,
    float, string and 1e400 endpoints (1e400 parses to an infinite float);
    missing fields and a non-object top level.  All but a zero count without
    arrows and the huge counts are user errors.
    """
    n = draw(st.integers(1, 6))
    arrows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=3))
    data = {"vertices": n, "arrows": arrows}
    flaw = draw(st.sampled_from([None, None, "vertices", "endpoint", "shape"]))
    if flaw == "vertices":
        data["vertices"] = draw(
            st.sampled_from([0, -1, "3", 2.0, None, float("inf"), 10**400, 10**9])
        )
    elif flaw == "endpoint":
        bad = draw(st.sampled_from([-1, n, None, [1], 1.7, "1", float("inf")]))
        data["arrows"] = [*arrows, [0, bad]]
    elif flaw == "shape":
        data = draw(st.sampled_from(
            [[], "kac", None, {"vertices": n}, {"arrows": arrows},
             {"vertices": n, "arrows": {}}, {"vertices": n, "arrows": [[0]]}]
        ))
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("handler_fuzz")


@settings(max_examples=400, deadline=None)
@given(
    command=st.sampled_from(sorted(cli.HANDLERS)),
    data=quiver_data(),
    alpha=st.sampled_from([1, 2, 3, 0, -1]),
    order=st.sampled_from([1, 4, 0, -1]),
    g=st.sampled_from([1, 2, 0, -1, -2]),
    mode=st.sampled_from(["zero-fiber", "generic-fiber"]),
    lam=st.none() | st.sampled_from(["1,-1", "1,-2,1", "1", "x"]),
)
def test_every_handler_fuzz(fuzz_dir, command, data, alpha, order, g, mode, lam):
    # malformed quivers and small or negative flags: a clean exit code, no
    # traceback, a well-formed envelope, and no call past a few seconds
    argv = ["--format", "json", *command.split()]
    if command == "rank-table":
        argv += [f"--g={g}", f"--alpha={alpha}"]
    else:
        path = fuzz_dir / "quiver.json"
        path.write_text(json.dumps(data).replace("Infinity", "1e400"))
        argv += ["--quiver", str(path)]
        if command not in ("asymptotic", "shelling", "verify thm41"):
            argv.append(f"--alpha={alpha}")
    if command == "e-series":
        argv += [f"--order={order}", f"--mode={mode}"]
    if lam is not None and command in ("verify generic-fiber", "oracle moment-fiber"):
        argv.append(f"--lam={lam}")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        report = json.loads(out.getvalue())
        assert list(report)[:2] == ["schema", "command"], argv
        assert list(report)[-3:] == ["ok", "text", "seed"], argv
        assert report["command"] == command and report["ok"] is (code == 0)


# a new interpreter's environment: the package sources on its path
PROCESS_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

# one call per exit code of the process path: 0, 2 (a bad flag, argparse's
# exit, and a bad quiver file) and 3 (a guard)
PROCESS_CALLS = [
    (["--format", "json", "kac", "--alpha", "2"], 0),
    (["kac", "--alpha", "2", "--nope"], 2),
    (["kac", "--quiver", "missing.json"], 2),
    (["oracle", "moment-fiber", "--p", "7", "--alpha", "3", "--guard", "10"], 3),
]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a bad flag
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv, code", PROCESS_CALLS, ids=["ok", "bad-flag", "bad-quiver", "guard"])
def test_process_exit_matches_the_in_process_call(argv, code, kron_file, tmp_path):
    # ``python -m kacdepth.cli`` exits through cli.run (main, then gc.freeze());
    # its bytes and exit code are main's, and main in process freezes nothing
    argv = [str(tmp_path / a) if a == "missing.json" else a for a in argv]
    if "--quiver" not in argv:
        argv = [*argv, "--quiver", kron_file]
    frozen = gc.get_freeze_count()
    expected = _run_in_process(argv)
    assert gc.get_freeze_count() == frozen
    assert expected[2] == code
    proc = subprocess.run([sys.executable, "-m", "kacdepth.cli", *argv], env=PROCESS_ENV,
                          capture_output=True, text=True)
    assert (proc.stdout, proc.stderr, proc.returncode) == expected


def test_process_exit_freezes_the_heap_and_runs_atexit_handlers(kron_file):
    # an atexit handler registered before the module runs still runs, and
    # finds the heap frozen
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv[0] = 'kacdepth'\n"
        "runpy.run_module('kacdepth.cli', run_name='__main__')\n"
    )
    argv = ["kac", "--quiver", kron_file, "--alpha", "2"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=PROCESS_ENV, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-2:] == ["routes agree      = True", "frozen True"]
