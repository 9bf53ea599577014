import json
import os
import re
import time
import tracemalloc

import pytest

from ginet.cli import (
    main,
    parse_group_file,
    parse_poly_file,
    write_group_file,
    write_poly_file,
    ParseError,
)
from ginet.equivlayers import layer_space
from ginet.orbits import poly_classes
from ginet.permgroup import GroupTooLargeError, alternating, cyclic, dihedral
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


# each of these used to give a group (C4 without the generator, a group
# without the dims, an empty degree-0 "group") or to leak numpy's
# "negative dimensions are not allowed" on the way to one
@pytest.mark.parametrize("text, message", [
    ("name = cyclic\nn = 4\ngen: (1 2)\n", "line 3: a named group .* no 'gen' lines"),
    ("gen: (1 2)\nname = cyclic\nn = 4\n", "line 1: a named group .* no 'gen' lines"),
    ("name = cyclic\nn = 4\ndims = 2 2\n", "line 3: 'dims' applies only to name = grid"),
    ("n = 4\ngen: (1 2)\ndims = 2 2\n", "line 3: 'dims' applies only to name = grid"),
    ("n = -3\ngen: (1 2)\n", "line 1: n must be >= 1, got -3"),
    ("name = symmetric\nn = -3\n", "line 2: n must be >= 1, got -3"),
    ("n = 0\n", "line 1: n must be >= 1, got 0"),
    ("name = grid\nn = 7\ndims = 2 3\n", "line 2: n = 7 differs from 6, the product of dims"),
])
def test_parse_group_rejects_inconsistent_files(tmp_path, capsys, text, message):
    p = tmp_path / "bad.grp"
    p.write_text(text)
    with pytest.raises(ParseError, match=message):
        parse_group_file(str(p))
    assert main(["closure", "--group", str(p)]) == 2
    assert re.search(message, capsys.readouterr().err)


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


def test_parse_poly_named_forms_add_up(tmp_path):
    p = tmp_path / "s.poly"
    p.write_text("name: powersum 2\n2.0: 1 1 0\nname: powersum 3\nname: powersum 2\n")
    poly = parse_poly_file(str(p), 3)
    assert poly.terms == {(2, 0, 0): 2.0, (0, 2, 0): 2.0, (0, 0, 2): 2.0,
                          (3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0,
                          (1, 1, 0): 2.0}


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_parse_poly_powersum_degree_below_one(tmp_path, degree):
    # powersum 0 used to collapse its n constant terms into one, giving 1
    p = tmp_path / "s.poly"
    p.write_text(f"1.0: 1 0 0\nname: powersum {degree}\n")
    with pytest.raises(ParseError, match="line 2.*powersum degree must be >= 1"):
        parse_poly_file(str(p), 3)


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


def test_csv_tables_match_one_row_per_code(c4_file, tmp_path, monkeypatch, capsys):
    # chunks of 5 rows split both tables, with a remainder, and the bytes
    # are those of one line per code in code order
    import ginet.cli
    monkeypatch.setattr(ginet.cli, "_CSV_CHUNK", 5)
    dump, dense = tmp_path / "orbits.csv", tmp_path / "dense.csv"
    assert main(["orbits", "--group", c4_file, "--k", "3", "--kind", "poly",
                 "--format", "csv", "--dump", str(dump)]) == 0
    P = poly_classes(cyclic(4), 3)
    want = "code,class_id\n" + "".join(f"{c},{P.class_of(c)}\n" for c in range(64))
    assert dump.read_text() == capsys.readouterr().out == want
    assert main(["basis", "--group", c4_file, "--order", "2", "1",
                 "--dump-dense", str(dense)]) == 0
    cid = layer_space(cyclic(4), 2, 1, 1, 1).linear_partition.labels.reshape(4, 16)
    assert dense.read_text() == "out_code,in_code,class_id\n" + "".join(
        f"{o},{i},{cid[o, i]}\n" for o in range(4) for i in range(16))


def test_csv_table_is_written_in_chunks():
    # 5^8 = 390 625 rows: one string per row took about 28 MB of traced
    # memory; a chunk of rows at a time takes about 1.5 MB
    from ginet.cli import _write_csv
    classes_of = poly_classes(alternating(5), 8).classes_of
    with open(os.devnull, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            _write_csv(fh, "code,class_id", classes_of, (5**8,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20


def test_approx_a6_vandermonde_exit0(tmp_path, capsys):
    # degree 15 on [6]: 15 504 multisets, while the 6^15 tuple view would
    # take terabytes; approx never builds it
    group, poly = tmp_path / "a6.grp", tmp_path / "v6.poly"
    group.write_text("name = alternating\nn = 6\n")
    poly.write_text("name: vandermonde\n")
    assert main(["approx", "--group", str(group), "--poly", str(poly), "--epsilon", "1e-10",
                 "--exact-mul", "--eval-points", "2048"]) == 0
    assert "within_epsilon: true" in capsys.readouterr().out


def test_approx_command_exact(c4_file, ring_poly_file, tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["approx", "--group", c4_file, "--poly", ring_poly_file,
                 "--epsilon", "0.05", "--exact-mul", "--eval-points", "500",
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["results"]["within_epsilon"] is True
    assert data["results"]["achieved_max_error"] <= 1e-10


def test_approx_command_adds_named_forms(tmp_path, capsys):
    grp = tmp_path / "s3.grp"
    grp.write_text("name = symmetric\nn = 3\n")
    poly = tmp_path / "s.poly"
    poly.write_text("name: powersum 2\nname: powersum 3\n")
    report = tmp_path / "r.json"
    assert main(["approx", "--group", str(grp), "--poly", str(poly),
                 "--epsilon", "0.05", "--exact-mul", "--eval-points", "50",
                 "--report", str(report)]) == 0
    assert "terms: 2 " in capsys.readouterr().out
    terms = json.loads(report.read_text())["results"]["terms"]
    assert sorted(t["degree"] for t in terms) == [2, 3]


def test_approx_powersum_zero_exit2(c4_file, tmp_path, capsys):
    poly = tmp_path / "s.poly"
    poly.write_text("name: powersum 0\n")
    assert main(["approx", "--group", c4_file, "--poly", str(poly),
                 "--epsilon", "0.05", "--exact-mul"]) == 2
    assert "line 1: powersum degree must be >= 1, got 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_vandermonde_rejects_no_trials(trials, capsys):
    assert main(["verify", "vandermonde", "--n", "4", "--max-order", "1",
                 "--trials", trials]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_verify_vandermonde_rejects_n_below_2(capsys):
    assert main(["verify", "vandermonde", "--n", "1", "--max-order", "1"]) == 2
    assert "n must be >= 2 (the swap moves points 1 and 2), got 1" in capsys.readouterr().err


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


def test_verify_necessary_explicit_supergroup_beyond_the_two_closure_cap(tmp_path, capsys):
    g = tmp_path / "c9.grp"
    g.write_text("name = cyclic\nn = 9\n")
    h = tmp_path / "d9.grp"
    h.write_text("name = dihedral\nn = 9\n")
    report = tmp_path / "r.json"
    assert main(["verify", "necessary", "--group", str(g), "--supergroup", str(h),
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "condition_holds: true" in out
    assert "two_closed: not computed (the 2-closure is capped at n <= 8)" in out
    assert json.loads(report.read_text())["results"]["two_closed_cross_check"] is None


def test_parse_error_exit2(tmp_path, capsys):
    p = tmp_path / "bad.grp"
    p.write_text("n = 4\ngen: (1 2\n")
    assert main(["orbits", "--group", str(p), "--k", "2"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit2(capsys):
    assert main(["orbits", "--group", "/nonexistent.grp", "--k", "2"]) == 2


def test_usage_error_exit2():
    assert main(["orbits"]) == 2


def test_tuple_cap_exit3(c4_file, monkeypatch, capsys):
    import ginet.orbits

    def no_arrays(*args):
        raise AssertionError("an n^k array was built")  # would exit 1

    # the memory check exits 3 at once, before the kernel builds a code map;
    # C4's polynomial classes at k = 40 fit in memory (12 341 multisets),
    # but 40 times the largest multinomial, 40!/(10!)^4, is over 2^63
    monkeypatch.setattr(ginet.orbits, "tuple_action_codes", no_arrays)
    monkeypatch.setattr(ginet.orbits, "min_labels", no_arrays)
    physical = "bytes of physical memory"
    for argv, reason in ((["orbits", "--group", c4_file, "--k", "40", "--kind", "layer"], physical),
                         (["orbits", "--group", c4_file, "--k", "40", "--kind", "poly"],
                          "need k * M < 2^63"),
                         (["basis", "--group", c4_file, "--order", "20", "20"], physical),
                         (["verify", "an-sn", "--n", "12", "--max-order", "12"], physical)):
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "resource limit exceeded" in err and reason in err


# C4's 6545 multisets at k = 32 make a small partition, but its 4^32 = 2^64
# tuple codes do not fit in int64: the code,class_id tables exit 3 before
# they write a byte
def test_csv_beyond_int64_codes_exit3(c4_file, tmp_path, capsys):
    dump = tmp_path / "orbits.csv"
    for argv in (["--format", "csv"], ["--dump", str(dump)]):
        assert main(["orbits", "--group", c4_file, "--k", "32", "--kind", "poly"] + argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and not dump.exists()
        assert "the code,class_id CSV of [4]^32 needs n^k < 2^63" in err
    assert main(["orbits", "--group", c4_file, "--k", "32", "--kind", "poly",
                 "--format", "json"]) == 0
    # Burnside: (6545 + 1 + 17 + 1) / 4 classes, for the rotations by 0..3
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["num_classes"] == 1641 and sum(results["class_sizes"]) == 4**32


# k < 0 used to leak numpy's "can only specify one unknown dimension"
@pytest.mark.parametrize("kind", ["layer", "poly"])
def test_orbits_negative_k_exit2(c4_file, capsys, kind):
    assert main(["orbits", "--group", c4_file, "--kind", kind, "--k", "-1"]) == 2
    assert "k must be >= 0, got -1" in capsys.readouterr().err


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


@pytest.mark.parametrize("option", [["--epsilon", "nan"], ["--epsilon", "inf"],
                                    ["--epsilon", "0.05", "--box", "nan", "1"],
                                    ["--epsilon", "0.05", "--box", "0", "inf"]])
def test_approx_non_finite_exit2(c4_file, ring_poly_file, option, capsys):
    # before the check, nan trained against nan targets (exit 1) and
    # inf passed with within_epsilon: true (exit 0)
    code = main(["approx", "--group", c4_file, "--poly", ring_poly_file,
                 *option, "--eval-points", "10"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_approx_negative_eval_points_exit2_before_training(c4_file, ring_poly_file,
                                                         monkeypatch, capsys):
    import ginet.net
    trained = []
    monkeypatch.setattr(ginet.net, "train_product_mlp",
                        lambda *args, **kwargs: trained.append(args))
    assert main(["approx", "--group", c4_file, "--poly", ring_poly_file,
                 "--epsilon", "0.05", "--eval-points", "-3"]) == 2
    assert "eval_points must be >= 0, got -3" in capsys.readouterr().err
    assert trained == []


def test_approx_class_sum_memory_exit3_before_training(c4_file, ring_poly_file,
                                                      monkeypatch, capsys):
    # the C4 classes (a few kB) fit; the class sums of one 2048-point
    # chunk, estimated before any gadget trains, do not
    import ginet.net
    import ginet.orbits

    def no_training(*args, **kwargs):
        raise AssertionError("a gadget trained before the class-sum memory check")

    monkeypatch.setattr(ginet.net, "train_product_mlp", no_training)
    monkeypatch.setattr(ginet.orbits, "_PHYSICAL_MEMORY", 100_000)
    assert main(["approx", "--group", c4_file, "--poly", ring_poly_file,
                 "--epsilon", "0.05"]) == 3
    err = capsys.readouterr().err
    assert "resource limit exceeded: the class sums of 1 terms on 2048 points" in err


# the limit is the physical memory, and nothing sets it: --cap is
# unrecognized on every command
@pytest.mark.parametrize("argv", [
    ["closure", "--group", "{group}", "--cap", "-5"],
    ["verify", "vandermonde", "--n", "4", "--max-order", "1", "--cap", "-5"],
    ["verify", "necessary", "--group", "{group}", "--cap", "1"],
    ["approx", "--group", "{group}", "--poly", "{poly}", "--epsilon", "0.05",
     "--exact-mul", "--cap", "100"],
    ["orbits", "--group", "{group}", "--k", "2", "--cap", "16"],
    ["basis", "--group", "{group}", "--order", "1", "1", "--cap", "16"],
    ["verify", "an-sn", "--n", "4", "--max-order", "2", "--cap", "16"],
], ids=["closure", "vandermonde", "necessary", "approx", "orbits", "basis", "an-sn"])
def test_cap_is_a_usage_error_where_no_tuple_cap_applies(argv, c4_file, ring_poly_file,
                                                         capsys):
    argv = [a.format(group=c4_file, poly=ring_poly_file) for a in argv]
    assert main(argv) == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_orbits_format_csv(c4_file, capsys):
    assert main(["orbits", "--group", c4_file, "--k", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["code,class_id", "0,0", "1,0", "2,0", "3,0"]


# csv is a table of orbits codes; elsewhere it is a usage error, not the
# text report
@pytest.mark.parametrize("argv", [
    ["basis", "--group", "{group}", "--order", "1", "1"],
    ["approx", "--group", "{group}", "--poly", "{poly}", "--epsilon", "0.05",
     "--exact-mul"],
    ["closure", "--group", "{group}"],
    ["verify", "an-sn", "--n", "4", "--max-order", "2"],
    ["verify", "vandermonde", "--n", "4", "--max-order", "1"],
    ["verify", "necessary", "--group", "{group}"],
], ids=["basis", "approx", "closure", "an-sn", "vandermonde", "necessary"])
def test_format_csv_is_a_usage_error_outside_orbits(argv, c4_file, ring_poly_file, capsys):
    argv = [a.format(group=c4_file, poly=ring_poly_file) for a in argv]
    assert main(argv + ["--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'csv'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["orbits", "--group", "{group}", "--k", "2"],
    ["basis", "--group", "{group}", "--order", "1", "1"],
    ["verify", "an-sn", "--n", "4", "--max-order", "2"],
], ids=["orbits", "basis", "an-sn"])
def test_cap_is_read_by_the_tuple_commands(argv, c4_file, monkeypatch, capsys):
    import ginet.orbits
    argv = [a.format(group=c4_file) for a in argv]
    assert main(argv) == 0
    monkeypatch.setattr(ginet.orbits, "_PHYSICAL_MEMORY", 100)
    assert main(argv) == 3
    assert "more than the 100 bytes of physical memory" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["symmetric", "alternating"])
@pytest.mark.parametrize("argv", [
    ["basis", "--order", "2", "2"],
    ["orbits", "--k", "4", "--kind", "poly"],
    ["approx", "--poly", "{poly}", "--epsilon", "0.05", "--exact-mul"],
], ids=["basis", "orbits", "approx"])
def test_degree_12_groups_run_without_listing(family, argv, tmp_path, monkeypatch, capsys):
    import ginet.permgroup

    def no_listing(*args):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(ginet.permgroup, "_breadth_first", no_listing)
    grp = tmp_path / "g.grp"
    grp.write_text(f"name = {family}\nn = 12\n")
    poly = tmp_path / "p.poly"
    poly.write_text("name: powersum 2\nname: powersum 1\n")
    argv = [a.format(poly=poly) for a in argv]
    assert main(argv + ["--group", str(grp)]) == 0
    assert "group order: " + str(479001600 // (2 if family == "alternating" else 1)) \
        in capsys.readouterr().out


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


def test_verify_an_sn_rejects_max_order_below_1(capsys):
    assert main(["verify", "an-sn", "--n", "5", "--max-order", "0"]) == 2
    assert "max_total_order must be >= 1, got 0" in capsys.readouterr().err


def test_verify_vandermonde_x0_length_is_a_usage_error(monkeypatch, capsys):
    # the CLI always passes the default x0; a wrong-length one must still
    # surface as exit 2 with the length message
    import functools

    import ginet.analysis
    monkeypatch.setattr(ginet.analysis, "vandermonde_obstruction",
                        functools.partial(ginet.analysis.vandermonde_obstruction,
                                          x0=(1.0, 2.0, 3.0, 4.0)))
    assert main(["verify", "vandermonde", "--n", "3", "--max-order", "1"]) == 2
    assert "x0 needs n = 3 coordinates, got 4" in capsys.readouterr().err


def test_reused_parser_matches_fresh_processes(c4_file, ring_poly_file, tmp_path, capsys):
    """A sequence of main() calls in one process gives each call's exit
    code, stdout and report as a fresh process does."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ginet
    from ginet import cli
    s5 = tmp_path / "s5.grp"
    s5.write_text("name = symmetric\nn = 5\n")
    calls = [
        ["orbits", "--group", c4_file, "--k", "2", "--kind", "poly"],
        ["basis", "--group", c4_file, "--order", "1", "2", "--features", "1", "2"],
        ["approx", "--group", c4_file, "--poly", ring_poly_file, "--epsilon", "0.05",
         "--exact-mul", "--eval-points", "50"],
        ["closure", "--group", c4_file],
        ["verify", "an-sn", "--n", "4", "--max-order", "3"],
        ["verify", "vandermonde", "--n", "4", "--max-order", "1", "--trials", "5"],
        ["verify", "necessary", "--group", c4_file, "--supergroup", str(s5)],
        ["verify", "vandermonde", "--n", "4"],            # usage error
        ["orbits", "--group", c4_file, "--k", "1", "--seed", "x"],
        ["--version"],
        ["orbits", "--group", c4_file, "--k", "2"],       # after the errors
    ]
    src = str(Path(ginet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for i, argv in enumerate(calls):
        report = [] if argv == ["--version"] else ["--report", str(tmp_path / f"seq{i}.json")]
        code = main(argv + report)
        seq_out = capsys.readouterr()
        fresh_report = [] if not report else ["--report", str(tmp_path / f"fresh{i}.json")]
        proc = subprocess.run([sys.executable, "-m", "ginet.cli", *argv, *fresh_report],
                              capture_output=True, text=True, env=env)
        assert code == proc.returncode, argv
        assert seq_out.out == proc.stdout, argv
        if code == 2:
            assert seq_out.err == proc.stderr, argv
        if report and code == 0:
            assert Path(report[1]).read_bytes() == Path(fresh_report[1]).read_bytes()
    assert [main(argv) for argv in (calls[-4], ["--version"])] == [2, 0]
    assert cli._parser() is cli._parser()
