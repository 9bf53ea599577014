import json

import pytest

from ginet.cli import (
    main,
    parse_group_file,
    parse_poly_file,
    write_group_file,
    write_poly_file,
    ParseError,
)
from ginet.permgroup import GroupTooLargeError, cyclic, dihedral
from ginet.polybasis import Polynomial, vandermonde


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.grp"
    p.write_text("n = 4\ngen: (1 2 3 4)\n")
    return str(p)


@pytest.fixture
def ring_poly_file(tmp_path):
    p = tmp_path / "ring.poly"
    p.write_text("1.0: 1 1 0 0\n1.0: 0 1 1 0\n1.0: 0 0 1 1\n1.0: 1 0 0 1\n")
    return str(p)


# ------------------------------------------------------------- group files

def test_parse_group_generators(c4_file):
    G = parse_group_file(c4_file)
    assert G == cyclic(4)


def test_parse_group_named(tmp_path):
    p = tmp_path / "a5.grp"
    p.write_text("name = alternating\nn = 5\n")
    assert parse_group_file(str(p)).order == 60


def test_parse_group_grid(tmp_path):
    p = tmp_path / "g.grp"
    p.write_text("name = grid\ndims = 2 3\n")
    assert parse_group_file(str(p)).order == 6


def test_parse_group_comments_and_blanks(tmp_path):
    p = tmp_path / "d4.grp"
    p.write_text("# dihedral on the square\n\nn = 4\ngen: (1 2 3 4)\ngen: (2 4)\n")
    assert parse_group_file(str(p)) == dihedral(4)


def test_parse_group_malformed_cycle_cites_line(tmp_path):
    p = tmp_path / "bad.grp"
    p.write_text("n = 4\ngen: (1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_group_file(str(p))


def test_parse_group_out_of_range_point(tmp_path):
    p = tmp_path / "bad.grp"
    p.write_text("n = 3\ngen: (1 5)\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_group_file(str(p))


def test_parse_group_missing_n(tmp_path):
    p = tmp_path / "bad.grp"
    p.write_text("gen: (1 2)\n")
    with pytest.raises(ParseError, match="missing"):
        parse_group_file(str(p))


def test_group_roundtrip(tmp_path):
    G = dihedral(5)
    path = tmp_path / "d5.grp"
    write_group_file(str(path), G)
    assert parse_group_file(str(path)) == G


# ---------------------------------------------------------- polynomial files

def test_parse_poly_terms(tmp_path):
    p = tmp_path / "p.poly"
    p.write_text("1.0: 2 0 0\n-0.5: 0 1 1\n")
    poly = parse_poly_file(str(p), 3)
    assert poly.terms == {(2, 0, 0): 1.0, (0, 1, 1): -0.5}


def test_parse_poly_named_vandermonde(tmp_path):
    p = tmp_path / "v.poly"
    p.write_text("name: vandermonde\n")
    assert parse_poly_file(str(p), 3).allclose(vandermonde(3))


def test_parse_poly_named_powersum(tmp_path):
    p = tmp_path / "s.poly"
    p.write_text("name: powersum 2\n")
    poly = parse_poly_file(str(p), 3)
    assert poly.terms == {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}


def test_parse_poly_wrong_length(tmp_path):
    p = tmp_path / "bad.poly"
    p.write_text("1.0: 1 0\n")
    with pytest.raises(ParseError, match="length"):
        parse_poly_file(str(p), 3)


def test_poly_roundtrip(tmp_path):
    poly = Polynomial(3, {(1, 2, 0): -1.25, (0, 0, 3): 0.75})
    path = tmp_path / "p.poly"
    write_poly_file(str(path), poly)
    again = parse_poly_file(str(path), 3)
    assert again.terms == poly.terms


# ----------------------------------------------------------------- commands

def test_orbits_command(c4_file, tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["orbits", "--group", c4_file, "--k", "2",
                 "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "num_classes: 4" in out
    data = json.loads(report.read_text())
    assert data["results"]["num_classes"] == 4
    assert data["config"]["command"] == "orbits"
    assert data["version"]


def test_orbits_dump_csv(c4_file, tmp_path):
    dump = tmp_path / "orbits.csv"
    assert main(["orbits", "--group", c4_file, "--k", "1",
                 "--dump", str(dump)]) == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "code,class_id"
    assert len(lines) == 5


def test_orbits_poly_kind(c4_file, capsys):
    assert main(["orbits", "--group", c4_file, "--k", "2",
                 "--kind", "poly"]) == 0
    assert "num_classes: 3" in capsys.readouterr().out


def test_basis_command(c4_file, capsys):
    assert main(["basis", "--group", c4_file, "--order", "1", "1",
                 "--features", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "linear_dim: 4" in out
    assert "bias_dim: 1" in out


def test_basis_dump_dense(c4_file, tmp_path):
    dump = tmp_path / "dense.csv"
    assert main(["basis", "--group", c4_file, "--order", "1", "1",
                 "--dump-dense", str(dump)]) == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "out_code,in_code,class_id"
    assert len(lines) == 17


def test_approx_command_exact(c4_file, ring_poly_file, tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["approx", "--group", c4_file, "--poly", ring_poly_file,
                 "--epsilon", "0.05", "--exact-mul", "--eval-points", "500",
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["results"]["within_epsilon"] is True
    assert data["results"]["achieved_max_error"] <= 1e-10


def test_closure_command(tmp_path, capsys):
    p = tmp_path / "a4.grp"
    p.write_text("name = alternating\nn = 4\n")
    assert main(["closure", "--group", str(p)]) == 0
    out = capsys.readouterr().out
    assert "is_two_closed: false" in out
    assert "closure order: 24" in out


def test_verify_an_sn_exit0(capsys):
    assert main(["verify", "an-sn", "--n", "5", "--max-order", "3"]) == 0
    assert "true" in capsys.readouterr().out


def test_verify_vandermonde_exit0(capsys):
    assert main(["verify", "vandermonde", "--n", "4", "--max-order", "1",
                 "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "all_equal: true" in out
    assert "vandermonde_gap: 12" in out


def test_verify_vandermonde_separates_beyond_range(capsys):
    # past the coincidence range the alternating nets genuinely separate
    # the swapped point, which the verifier reports as a failure
    code = main(["verify", "vandermonde", "--n", "4", "--max-order", "2",
                 "--trials", "10"])
    assert code == 1


def test_verify_necessary_command(tmp_path, capsys):
    p = tmp_path / "c5.grp"
    p.write_text("name = cyclic\nn = 5\n")
    assert main(["verify", "necessary", "--group", str(p)]) == 0
    out = capsys.readouterr().out
    assert "condition_holds: true" in out

    p2 = tmp_path / "a4.grp"
    p2.write_text("name = alternating\nn = 4\n")
    assert main(["verify", "necessary", "--group", str(p2)]) == 0
    assert "condition_holds: false" in capsys.readouterr().out


def test_verify_necessary_explicit_supergroup(tmp_path, capsys):
    g = tmp_path / "c4.grp"
    g.write_text("name = cyclic\nn = 4\n")
    h = tmp_path / "s4.grp"
    h.write_text("name = symmetric\nn = 4\n")
    assert main(["verify", "necessary", "--group", str(g),
                 "--supergroup", str(h)]) == 0
    assert "supergroups checked: 1" in capsys.readouterr().out


def test_parse_error_exit2(tmp_path, capsys):
    p = tmp_path / "bad.grp"
    p.write_text("n = 4\ngen: (1 2\n")
    assert main(["orbits", "--group", str(p), "--k", "2"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit2(capsys):
    assert main(["orbits", "--group", "/nonexistent.grp", "--k", "2"]) == 2


def test_usage_error_exit2():
    assert main(["orbits"]) == 2


def test_tuple_cap_exit3(c4_file, capsys):
    assert main(["orbits", "--group", c4_file, "--k", "12", "--cap", "100"]) == 3
    assert "resource limit exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [GroupTooLargeError("group closure exceeds cap"),
                                 MemoryError()])
def test_resource_limits_exit3(c4_file, monkeypatch, capsys, exc):
    import ginet.cli

    def too_large(path, cap=None):
        raise exc

    monkeypatch.setattr(ginet.cli, "parse_group_file", too_large)
    assert main(["orbits", "--group", c4_file, "--k", "2"]) == 3
    assert "resource limit exceeded" in capsys.readouterr().err


def test_json_format_stdout(c4_file, capsys):
    assert main(["orbits", "--group", c4_file, "--k", "2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["num_classes"] == 4


def test_report_determinism_double_run(c4_file, ring_poly_file, tmp_path):
    reports = []
    for name in ("x.json", "y.json"):
        path = tmp_path / name
        assert main(["approx", "--group", c4_file, "--poly", ring_poly_file,
                     "--epsilon", "0.05", "--seed", "3", "--eval-points", "200",
                     "--report", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_approx_gadget_failure_exit1(c4_file, ring_poly_file, capsys):
    # an unreachable accuracy target is a verification failure, not usage
    code = main(["approx", "--group", c4_file, "--poly", ring_poly_file,
                 "--epsilon", "1e-9", "--train-epochs", "1",
                 "--eval-points", "10"])
    assert code == 1
    assert "verification failed" in capsys.readouterr().err


def test_cli_subprocess_entry(c4_file):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ginet
    # the child imports the same ginet as this process, installed or not
    src = str(Path(ginet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ginet.cli", "orbits", "--group", c4_file,
         "--k", "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "num_classes: 4" in proc.stdout


def test_report_determinism_verifiers(tmp_path):
    for cmd in (["verify", "an-sn", "--n", "4", "--max-order", "3"],
                ["verify", "vandermonde", "--n", "4", "--max-order", "1",
                 "--trials", "5"]):
        blobs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(cmd + ["--report", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
