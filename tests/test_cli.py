"""Command-line driver: subcommands, output formats, exit codes."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from kacdepth.cli import main
from kacdepth.oring import cached_ring


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


@pytest.mark.parametrize("oracle", ["orbit-count"])
def test_oracle_guard_counts_ring_tables(oracle, point_file, capsys):
    # no arrows: one point to enumerate, but the ring tables hold 11^2 entries
    before = cached_ring.cache_info()
    args = ["oracle", oracle, "--quiver", point_file, "--p", "11", "--alpha", "1"]
    assert main(args + ["--guard", "100"]) == 3
    assert "estimate 122 > limit 100; raise --guard" in capsys.readouterr().err
    assert cached_ring.cache_info() == before
    assert main(args + ["--guard", "122"]) == 0


def test_moment_fiber_guard_estimate(a2_file, capsys):
    # A2 at rank (1,1): h = 1, R = 2 alpha = 4, C = alpha h = 2, so the estimate
    # is 3^2 * 4 * 3 * 2 + isqrt(3) = 217; the route builds no ring tables
    before = cached_ring.cache_info()
    args = ["oracle", "moment-fiber", "--quiver", a2_file, "--p", "3", "--alpha", "2"]
    assert main(args + ["--guard", "216"]) == 3
    assert "fiber enumeration estimate 217 > limit 216; raise --guard" in capsys.readouterr().err
    assert main(args + ["--guard", "217"]) == 0
    assert "fiber size 21" in capsys.readouterr().out
    assert cached_ring.cache_info() == before


def test_arrowless_generic_fiber_refused_fast(tmp_path, capsys):
    # no y unknowns, but the target codes (lam_i mod p) * p^(alpha-1) have
    # millions of digits: the estimate counts p^alpha for them
    path = tmp_path / "two_points.json"
    path.write_text('{"vertices": 2, "arrows": []}')
    args = ["verify", "generic-fiber", "--quiver", str(path), "--lam=1,-1"]
    start = time.perf_counter()
    assert main(args + ["--p", "100000007", "--alpha", "300000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "fiber enumeration estimate >= 100000007^300000" in capsys.readouterr().err
    assert main(args + ["--p", "3", "--alpha", "2"]) == 0


@pytest.mark.parametrize(
    "command, message",
    [
        (["asymptotic"], "asymptotic sum estimate 9 > limit 8"),
        (["verify", "thm41"], "asymptotic sum estimate 9 > limit 8"),
        (["shelling"], "order complex estimate 4 > limit 3"),
    ],
)
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


@pytest.mark.parametrize("lam", ["1", "1,-1,0"])
def test_moment_fiber_lam_length_is_a_user_error(lam, a2_file, capsys):
    args = ["oracle", "moment-fiber", "--quiver", a2_file, "--p", "3", "--alpha", "1"]
    assert main(args + [f"--lam={lam}"]) == 2
    assert "expected 2, one per vertex" in capsys.readouterr().err


def test_huge_prime_is_a_user_error(point_file, capsys):
    p = str(10**309 + 1)
    args = ["oracle", "moment-fiber", "--quiver", point_file, "--p", p, "--alpha", "1"]
    assert main(args + ["--guard", str(10**700)]) == 2
    assert "is not prime" in capsys.readouterr().err


def test_identity_failure_exits_1(kron_file, monkeypatch, capsys):
    # exit code 1 is reserved for mathematical mismatches in the report
    import kacdepth.cli as cli_mod

    def failing_handler(args):
        return {"ok": False, "text": ["forced diff"]}

    monkeypatch.setattr(cli_mod, "_cmd_kac", failing_handler)
    assert main(["kac", "--quiver", kron_file]) == 1
    assert "forced diff" in capsys.readouterr().out


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
