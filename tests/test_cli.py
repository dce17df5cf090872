import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thinlie import cli
from thinlie.liealg import StructureTable


def run_cli(args):
    return cli.main(args)


def test_construct_w_writes_table(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run_cli(["construct", "--algebra", "W", "--p", "3", "--n", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "dimension: 9" in printed and "Jacobi: PASS" in printed
    data = json.loads(out.read_text())
    assert len(data["labels"]) == 9


def test_construct_rejects_nonprime(capsys):
    assert run_cli(["construct", "--algebra", "W", "--p", "4", "--n", "1"]) == 2
    assert "prime" in capsys.readouterr().err


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
        return cli.VerifyRun(real.report, ["injected mismatch"])

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


def test_depth_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("THINLOOP_DEPTH", "14")
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--grading", "mixed", "--p", "3", "--n1", "1", "--n2", "1",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["depth"] == 14


@pytest.mark.parametrize("args", [
    ["--grading", "mixed", "--p", "3", "--depth", "0"],
    ["--grading", "sigma-zero", "--p", "3", "--q", "3", "--depth", "-4"],
])
def test_verify_rejects_nonpositive_depth(args, capsys):
    assert run_cli(["verify", *args]) == 2
    assert "depth must be positive" in capsys.readouterr().err


def test_depth_env_rejects_zero(monkeypatch, capsys):
    monkeypatch.setenv("THINLOOP_DEPTH", "0")
    assert run_cli(["verify", "--grading", "mixed", "--p", "3"]) == 2
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
