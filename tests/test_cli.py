import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import phi1_monomials
from thinlie import cli, grading, liealg, thinloop, verify
from thinlie.errors import ThinlieError
from thinlie.ffield import field_create
from thinlie.grading import toral_params
from thinlie.liealg import DegreeMap, StructureTable


def run_cli(args):
    return cli.main(args)


def test_construct_w_writes_table(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run_cli(["construct", "--algebra", "W", "--p", "3", "--n", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "dimension: 9" in printed and "Jacobi: PASS" in printed
    data = json.loads(out.read_text())
    assert len(data["labels"]) == 9


def test_out_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run_cli(["construct", "--algebra", "W", "--p", "3", "--n", "1", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert len(json.loads(target.read_text())["labels"]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_out_replaces_a_regular_file(tmp_path, capsys):
    out = tmp_path / "w.json"
    out.write_text("old\n")
    assert run_cli(["construct", "--algebra", "W", "--p", "3", "--n", "1", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["labels"]) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]


@pytest.mark.parametrize("where", ["missing-dir", "a-dir", "under-a-file"])
@pytest.mark.parametrize("args,work", [
    (["verify", "--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1"], "run_finite"),
    (["grade", "--grading", "mixed", "--p", "3"], "mixed_grading"),
    (["construct", "--algebra", "W", "--p", "3", "--n", "1"], "build_W1n"),
], ids=["verify", "grade", "construct"])
def test_an_unwritable_out_is_a_configuration_error(tmp_path, monkeypatch, capsys, args, work, where):
    # rejected before the run: the driver, grading or builder is never called
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    (tmp_path / "file").write_text("")
    path, reason = {
        "missing-dir": (tmp_path / "missing" / "x.json", "No such file or directory"),
        "a-dir": (tmp_path, "Is a directory"),
        "under-a-file": (tmp_path / "file" / "x.json", "Not a directory"),
    }[where]
    assert run_cli([*args, "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: cannot write --out {path}: {reason}\n" and out == ""
    assert calls == [] and not (tmp_path / "missing").exists()


@pytest.mark.parametrize("target", ["dangling-symlink", "/dev/null"])
def test_a_writable_out_that_is_not_a_regular_file_passes_the_check(tmp_path, capsys, target):
    path = Path(target) if target == "/dev/null" else tmp_path / "link.json"
    if target == "dangling-symlink":
        path.symlink_to(tmp_path / "target.json")
    assert run_cli(["construct", "--algebra", "W", "--p", "3", "--n", "1", "--out", str(path)]) == 0
    if target == "dangling-symlink":
        assert len(json.loads((tmp_path / "target.json").read_text())["labels"]) == 3


def test_construct_rejects_nonprime(capsys):
    assert run_cli(["construct", "--algebra", "W", "--p", "4", "--n", "1"]) == 2
    assert "prime" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["0", "1", "4"])
@pytest.mark.parametrize("args", [
    ["--grading", "finite", "--q", "5", "--mu3", "0,1"],
    ["--grading", "sigma-zero", "--q", "5"],
    ["--grading", "eps-zero", "--q", "5", "--ratio", "1"],
], ids=["finite", "sigma-zero", "eps-zero"])
def test_toral_verify_rejects_a_nonprime_characteristic(args, p):
    # before reading q as a power of p: at p = 1 that loop never ends, at p = 0 it divides by zero
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "thinlie.cli", "verify", *args, "--p", p],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"characteristic must be prime, got {p}" in proc.stderr


def test_construct_rejects_nonpositive_height(capsys):
    assert run_cli(["construct", "--algebra", "W", "--p", "3", "--n", "0"]) == 2
    assert "height" in capsys.readouterr().err


def test_construct_hphi1_dimension(tmp_path, capsys):
    out = tmp_path / "h.json"
    code = run_cli([
        "construct", "--algebra", "Hphi1", "--p", "3", "--n1", "1", "--n2", "1",
        "--out", str(out),
    ])
    assert code == 0
    assert "dimension: 9" in capsys.readouterr().out


def test_table_json_roundtrip_through_cli(tmp_path):
    out = tmp_path / "h.json"
    run_cli(["construct", "--algebra", "Hphi1", "--p", "3", "--n1", "1", "--n2", "1",
             "--eps", "1", "--out", str(out)])
    from thinlie.cartan import build_H2_phi1
    from thinlie.ffield import field_create

    reloaded = StructureTable.from_json(json.loads(out.read_text()))
    built = build_H2_phi1(3, 1, 1, field_create(3), 1)
    assert reloaded.brackets == built.brackets and reloaded.labels == built.labels


def test_grade_mixed_outputs_degree_map(tmp_path):
    out = tmp_path / "dm.json"
    assert run_cli(["grade", "--grading", "mixed", "--p", "3", "--n1", "1", "--n2", "1",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["modulus"] == 6 and len(data["degrees"]) == 9


def test_verify_mixed_pass(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--grading", "mixed", "--p", "3", "--n1", "1", "--n2", "1",
                    "--depth", "18", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "PASS" and data["covering"] == "PASS"
    assert data["k"] == 5


def test_verify_finite_with_mu3_literal(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--grading", "finite", "--p", "3", "--q", "3",
                    "--mu3", "0,1", "--depth", "18", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    slots = [(d["degree"], d["kind"]) for d in data["diamonds"]]
    assert slots[0] == (1, "genuine") and slots[1] == (3, "genuine")


def test_verify_eps_zero_and_sigma_zero():
    assert run_cli(["verify", "--grading", "eps-zero", "--p", "5", "--q", "5",
                    "--ratio", "2", "--depth", "40"]) == 0
    assert run_cli(["verify", "--grading", "sigma-zero", "--p", "3", "--q", "3"]) == 0


def test_verify_bad_ratio_is_config_error(capsys):
    assert run_cli(["verify", "--grading", "eps-zero", "--p", "5", "--q", "5",
                    "--ratio", "4"]) == 2
    assert "ratio" in capsys.readouterr().err


def test_verify_failure_exits_one(monkeypatch, capsys):
    original = cli.run_mixed

    def fake_run(p, n1, n2, depth=None):
        real = original(p, n1, n2, depth)
        return verify.VerifyRun(real.report, ["injected mismatch"])

    monkeypatch.setattr(cli, "run_mixed", fake_run)
    code = run_cli(["verify", "--grading", "mixed", "--p", "3", "--n1", "1", "--n2", "1",
                    "--depth", "12"])
    assert code == 1
    assert "injected mismatch" in capsys.readouterr().out


def test_suite_unknown_row(capsys):
    assert run_cli(["suite", "--only", "no-such-row"]) == 2
    assert "no suite row" in capsys.readouterr().out


def test_suite_single_row(capsys):
    assert run_cli(["suite", "--only", "01-dimension"]) == 0
    assert "01-dimension-formulas: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--grading", "mixed", "--p", "3", "--depth", "0"],
    ["--grading", "sigma-zero", "--p", "3", "--q", "3", "--depth", "-4"],
])
def test_verify_rejects_nonpositive_depth(args, capsys):
    assert run_cli(["verify", *args]) == 2
    assert "depth must be positive" in capsys.readouterr().err


def test_suite_criterion_fails_under_python_O():
    # python -O strips assert statements; a broken criterion must still fail
    script = (
        "import sys\n"
        "from thinlie import cli, suite\n"
        "real = suite.build_W1n\n"
        "suite.build_W1n = lambda p, n: real(p, n + 1)\n"
        "sys.exit(cli.main(['suite', '--only', '01-dimension']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1, proc.stderr
    assert "01-dimension-formulas: FAIL" in proc.stdout


def test_verify_sigma_zero_char_two_passes(tmp_path):
    # -1 = 1 in characteristic two, so every predicted type -1 slot is a fake1
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--grading", "sigma-zero", "--p", "2", "--q", "4",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "PASS" and data["pattern_mismatches"] == []
    assert [d["kind"] for d in data["diamonds"][1:]] == ["fake1"] * (len(data["diamonds"]) - 1)


@pytest.mark.parametrize("command,flag", [
    (["verify", "--grading", "mixed", "--p", "3", "--n1", "0", "--n2", "1"], "--n1"),
    (["verify", "--grading", "mixed", "--p", "3", "--n1", "1", "--n2", "-1"], "--n2"),
    (["grade", "--grading", "mixed", "--p", "3", "--n1", "0"], "--n1"),
    (["grade", "--grading", "mixed", "--p", "3", "--n2", "0"], "--n2"),
])
def test_nonpositive_exponent_names_the_flag(command, flag, capsys):
    assert run_cli(command) == 2
    assert f"{flag} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["construct", "--algebra", "Hphi1", "--p", "3", "--field-k", "0"],
    ["verify", "--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1", "--field-k", "0"],
])
def test_nonpositive_field_degree_rejected(command, capsys):
    assert run_cli(command) == 2
    assert "--field-k must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify", "--grading", "finite", "--p", "3", "--q", "3"],
    ["grade", "--grading", "finite", "--p", "3"],
], ids=["verify", "grade"])
def test_sigma_zero_finite_grading_is_a_configuration_error(command, monkeypatch, capsys):
    # sigma = 0 leaves one eigenvalue per slice and so no finite grading:
    # rejected before any table is built, not reported as a failed run
    def no_build(*a, **k):
        raise AssertionError("eigenbasis built for sigma = 0")

    monkeypatch.setattr(verify, "eigenbasis", no_build)
    assert run_cli([*command, "--sigma", "0", "--field-k", "2"]) == 2
    err = capsys.readouterr().err
    assert verify.SIGMA_ZERO in err and "--grading sigma-zero" in err
    assert "internal error" not in err


def test_run_finite_rejects_sigma_zero():
    with pytest.raises(ThinlieError, match="--grading sigma-zero"):
        verify.run_finite(3, 1, params=toral_params(field_create(3, 2), 0))


@pytest.mark.parametrize("command,flag,value", [
    (["verify", "--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1"], "--n1", "2"),
    (["verify", "--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1"], "--rho", "1"),
    (["verify", "--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1"], "--sigma", "1"),
    (["grade", "--grading", "finite", "--p", "3", "--mu3", "0,1"], "--rho", "1"),
    (["construct", "--algebra", "Hsecond", "--p", "3"], "--field-k", "2"),
    (["construct", "--algebra", "Hphitau", "--p", "3"], "--eps", "2"),
    (["construct", "--algebra", "W", "--p", "3"], "--field-modulus", "1,1"),
    (["verify", "--grading", "mixed", "--p", "3"], "--q", "3"),
    (["verify", "--grading", "sigma-zero", "--p", "3", "--q", "3"], "--ratio", "1"),
    (["verify", "--grading", "eps-zero", "--p", "3", "--q", "3", "--ratio", "1"], "--n1", "2"),
    (["grade", "--grading", "mixed", "--p", "3"], "--mu3", "0,1"),
])
def test_unread_flag_is_rejected_and_named(command, flag, value, capsys):
    # each command passes without the flag, which its path never reads
    assert run_cli([*command, flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{flag} " in err and "is not read" in err
    assert run_cli(command) == 0


@pytest.mark.parametrize("command,flag,value", [
    (["construct", "--algebra", "Hsecond", "--p", "3"], "--n", "2"),
    (["construct", "--algebra", "Hphitau", "--p", "3"], "--n", "2"),
    (["construct", "--algebra", "Hphi1", "--p", "3"], "--n", "2"),
    (["construct", "--algebra", "AF", "--p", "3"], "--n", "4"),
    (["construct", "--algebra", "W", "--p", "3"], "--n1", "1"),
    (["construct", "--algebra", "AF", "--p", "3"], "--n1", "3"),
    (["construct", "--algebra", "W", "--p", "3"], "--n2", "1"),
    (["construct", "--algebra", "AF", "--p", "3"], "--n2", "2"),
    (["construct", "--algebra", "W", "--p", "3"], "--theta", "zero"),
    (["construct", "--algebra", "Hsecond", "--p", "3"], "--theta", "frobenius-id"),
    (["construct", "--algebra", "Hphitau", "--p", "3"], "--theta", "zero"),
    (["construct", "--algebra", "Hphi1", "--p", "3"], "--theta", "frobenius-id"),
    (["verify", "--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1"], "--n2", "1"),
    (["verify", "--grading", "sigma-zero", "--p", "3", "--q", "3"], "--n2", "5"),
    (["verify", "--grading", "eps-zero", "--p", "3", "--q", "3", "--ratio", "1"], "--n2", "1"),
    (["verify", "--grading", "sigma-zero", "--p", "3", "--q", "3"], "--n1", "2"),
    (["grade", "--grading", "finite", "--p", "3", "--mu3", "0,1"], "--n1", "2"),
])
def test_unread_flag_with_a_default_is_rejected_and_named(command, flag, value, capsys):
    # --n, --n1, --n2 and --theta are parsed as None, so a given flag is
    # told from its default even at the default's value
    assert run_cli([*command, flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{flag} " in err and "is not read" in err
    assert run_cli(command) == 0


@pytest.mark.parametrize("command", [
    ["construct", "--algebra", "W", "--p", "3", "--n", "1"],
    ["construct", "--algebra", "Hsecond", "--p", "3", "--n1", "1", "--n2", "1"],
    ["construct", "--algebra", "Hphitau", "--p", "3", "--n1", "1", "--n2", "1"],
    ["construct", "--algebra", "Hphi1", "--p", "3", "--n1", "1", "--n2", "1"],
    ["construct", "--algebra", "AF", "--p", "3", "--theta", "zero"],
    ["construct", "--algebra", "AF", "--p", "3", "--theta", "frobenius-id"],
    ["grade", "--grading", "mixed", "--p", "3", "--n1", "1", "--n2", "1"],
    ["grade", "--grading", "finite", "--p", "3", "--n1", "1", "--n2", "1", "--mu3", "0,1"],
    ["verify", "--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1", "--n1", "1"],
    ["verify", "--grading", "sigma-zero", "--p", "3", "--q", "3", "--n1", "1"],
    ["verify", "--grading", "eps-zero", "--p", "3", "--q", "3", "--ratio", "1", "--n1", "1"],
])
def test_flag_with_a_default_is_taken_where_it_is_read(command, capsys):
    assert run_cli(command) == 0


def test_defaults_apply_after_the_unread_flag_check(tmp_path, capsys):
    # without the flags W(1;1), H(2;(1,1);Phi(1)) and the zero theta are built
    for command, dim in [
        (["construct", "--algebra", "W", "--p", "3"], 3),
        (["construct", "--algebra", "Hphi1", "--p", "3"], 9),
    ]:
        assert run_cli(command) == 0
        assert f"dimension: {dim}" in capsys.readouterr().out
    zero, frob = tmp_path / "zero.json", tmp_path / "frob.json"
    assert run_cli(["construct", "--algebra", "AF", "--p", "3", "--out", str(zero)]) == 0
    assert run_cli(["construct", "--algebra", "AF", "--p", "3", "--theta", "zero",
                    "--out", str(frob)]) == 0
    assert zero.read_text() == frob.read_text()


def test_grade_finite_mu3_defaults_to_quadratic_field(tmp_path):
    out = tmp_path / "dm.json"
    assert run_cli(["grade", "--grading", "finite", "--p", "3", "--n2", "1",
                    "--mu3", "0,1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["modulus"] == 6 and len(data["degrees"]) == 9


def test_depth_below_modulus_plus_one_rejected(capsys):
    # the mixed grading for p = 3 has modulus N = 6, so depth 1 < N+1 = 7
    assert run_cli(["verify", "--grading", "mixed", "--p", "3", "--depth", "1"]) == 2
    assert "expansion depth 1 is below N+1 = 7" in capsys.readouterr().err


def test_depth_below_two_q_minus_two_rejected(tmp_path, capsys):
    # sigma-zero at q = 25 has modulus N = 24: depth 25 passes the N+1 rule
    # but stops before the second diamond and both centralizer chains
    args = ["verify", "--grading", "sigma-zero", "--p", "5", "--q", "25"]
    assert run_cli([*args, "--depth", "25"]) == 2
    assert "expansion depth 25 is below 2q-2 = 48" in capsys.readouterr().err
    out = tmp_path / "run.json"
    assert run_cli([*args, "--depth", "48", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "PASS"
    assert [d["degree"] for d in data["diamonds"]] == [1, 25]


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken_run(p, n1, n2, depth=None):
        raise AssertionError("component at degree 4 is not homogeneous")

    monkeypatch.setattr(cli, "run_mixed", broken_run)
    assert run_cli(["verify", "--grading", "mixed", "--p", "3"]) == 3
    err = capsys.readouterr().err
    assert "internal error: AssertionError: component at degree 4 is not homogeneous" in err


@pytest.mark.parametrize("args", [
    ["--grading", "finite", "--p", "2", "--q", "2", "--mu3", "0,1"],
    ["--grading", "mixed", "--p", "2", "--n1", "1", "--n2", "1"],
    ["--grading", "sigma-zero", "--p", "2", "--q", "2"],
])
def test_q_two_rejected_before_any_work(args, monkeypatch, capsys):
    def no_build(*a, **k):
        raise AssertionError("table built for q = 2")

    monkeypatch.setattr(verify, "eigenbasis", no_build)
    monkeypatch.setattr(verify, "phi1_rule_table", no_build)
    assert run_cli(["verify", *args]) == 2
    err = capsys.readouterr().err
    assert "q = 2" in err
    assert "second diamond in degree 2 needs dim L_2 = 2" in err
    assert "L_2 = [L_1, L_1] is at most 1-dimensional" in err


def test_eps_zero_char_two_rejected_before_any_work(monkeypatch, capsys):
    def no_build(*a, **k):
        raise AssertionError("eigenbasis built for eps-zero at p = 2")

    monkeypatch.setattr(verify, "eigenbasis", no_build)
    assert run_cli(["verify", "--grading", "eps-zero", "--p", "2", "--q", "4", "--ratio", "1"]) == 2
    assert "the only nonzero ratio sigma/rho in F_2 is 1 = -1" in capsys.readouterr().err


def _verify_json(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--grading", "mixed", "--p", "3", "--n1", "1", "--n2", "1",
                    "--out", str(out)])
    printed = capsys.readouterr()
    assert "internal error" not in printed.err and "error:" not in printed.err
    return code, json.loads(out.read_text()), printed.out


def test_consecutive_diamonds_in_report_is_a_verdict(tmp_path, monkeypatch, capsys):
    # classify every slot as if the component after it were two-dimensional too
    real = thinloop.classify_type
    monkeypatch.setattr(thinloop, "classify_type",
                        lambda V, X, Y, slot, following, degree: real(V, X, Y, slot, slot, degree))
    code, data, out = _verify_json(tmp_path, capsys)
    want = "ConsecutiveDiamonds at degree 3: two consecutive two-dimensional components"
    assert code == 1 and data["verdict"] == "FAIL" and data["pattern_mismatches"] == [want]
    assert want in out


def test_malformed_diamond_in_report_is_a_verdict(tmp_path, monkeypatch, capsys):
    # look for the second diamond one degree late, after the plane M_3
    real = thinloop.choose_generators
    monkeypatch.setattr(thinloop, "choose_generators",
                        lambda expansion, q=None, X=None, Y=None: real(expansion, q + 1, X, Y))
    code, data, out = _verify_json(tmp_path, capsys)
    want = "MalformedDiamond at degree 4: component before the second diamond has dim 2"
    assert code == 1 and data["verdict"] == "FAIL" and data["pattern_mismatches"] == [want]


def test_no_annihilator_in_report_is_a_verdict(tmp_path, monkeypatch, capsys):
    # cut the degree-1 component down to the line of its first basis vector
    real = thinloop.loop_expand

    def cut(base, degmap, depth):
        expansion = real(base, degmap, depth)
        expansion.components[0] = expansion.components[0][:1]
        return expansion

    monkeypatch.setattr(thinloop, "loop_expand", cut)
    code, data, out = _verify_json(tmp_path, capsys)
    want = "NoAnnihilator at degree 1: degree-1 component has dimension 1, not 2"
    assert code == 1 and data["verdict"] == "FAIL" and data["pattern_mismatches"] == [want]


@pytest.mark.parametrize("args", [
    ["--grading", "mixed", "--p", "3"],
    ["--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1"],
    ["--grading", "sigma-zero", "--p", "3", "--q", "3"],
    ["--grading", "eps-zero", "--p", "3", "--q", "3", "--ratio", "1"],
], ids=["mixed", "finite", "sigma-zero", "eps-zero"])
def test_validate_grading_runs_once_per_verify(args, monkeypatch, capsys):
    # count the calls through every thinlie module that bound the function
    real, calls = liealg.validate_grading, []

    def counted(table, degmap):
        calls.append(degmap)
        return real(table, degmap)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "thinlie"]:
        if getattr(module, "validate_grading", None) is real:
            monkeypatch.setattr(module, "validate_grading", counted)
    assert run_cli(["verify", *args]) == 0
    assert len(calls) == 1


def test_corrupted_mixed_degree_map_fails_grade_and_verify(tmp_path, monkeypatch, capsys):
    real = grading.grade_mixed
    x = phi1_monomials(3, 1, 1).index((1, 0))

    def corrupted(table, q, r):
        dm = real(table, q, r)
        degrees = list(dm.degrees)
        degrees[x] += 1
        return DegreeMap(dm.modulus, tuple(degrees))

    # grade and verify read one mixed_grading, so one patch fails both
    monkeypatch.setattr(verify, "grade_mixed", corrupted)
    out = tmp_path / "dm.json"
    assert run_cli(["grade", "--grading", "mixed", "--p", "3", "--out", str(out)]) == 2
    assert not out.exists()
    assert "degree map is not compatible with the table" in capsys.readouterr().err
    assert run_cli(["verify", "--grading", "mixed", "--p", "3", "--out", str(out)]) == 2
    assert not out.exists()
    assert "degree map is not compatible with the table" in capsys.readouterr().err


@pytest.mark.parametrize("p,mixed,finite", [
    ("3", ["--n1", "1", "--n2", "1"], None),
    ("2", ["--n1", "1", "--n2", "2"], None),
    ("3", None, (["--n2", "1"], ["--q", "3"])),
    ("2", None, (["--n2", "2"], ["--q", "4"])),
], ids=["mixed-3-1-1", "mixed-2-1-2", "finite-3-3", "finite-2-4"])
def test_grade_writes_the_degree_map_verify_expands(p, mixed, finite, tmp_path, monkeypatch):
    # the driver's Grading, recorded where the characteristic-two restriction
    # reads it: grade must write its degree map, before any restriction
    seen = []
    real = verify._derived_in_char_two
    monkeypatch.setattr(verify, "_derived_in_char_two", lambda g: seen.append(g) or real(g))
    if mixed:
        grade_args = verify_args = ["--grading", "mixed", "--p", p, *mixed]
    else:
        grade_args = ["--grading", "finite", "--p", p, *finite[0], "--mu3", "0,1"]
        verify_args = ["--grading", "finite", "--p", p, *finite[1], "--mu3", "0,1"]
    out = tmp_path / "dm.json"
    assert run_cli(["grade", *grade_args, "--out", str(out)]) == 0
    assert run_cli(["verify", *verify_args]) == 0
    (g,) = seen
    assert DegreeMap.from_json(json.loads(out.read_text())) == g.degmap
    # the map grades the whole table; characteristic two then expands L'
    assert len(g.degmap.degrees) == g.table.dim == real(g).table.dim + (p == "2")
