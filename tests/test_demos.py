import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_zassenhaus_demo_fails_on_a_failed_check_under_python_O():
    # python -O strips assert statements; a failed structure-map check must still fail the demo
    script = (
        "import runpy, thinlie\n"
        "from thinlie.liealg import MapCheck\n"
        "thinlie.check_structure_map = lambda *a, **k: MapCheck('rank', 'forced')\n"
        f"runpy.run_path({str(ROOT / 'demos' / '02_zassenhaus_tables.py')!r}, run_name='__main__')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 1, proc.stderr
    assert "FAIL (rank fails: forced)" in proc.stdout


def _forced_mismatch(name):
    """Code that makes thinlie.verify.<name> append a mismatch to every run."""
    return (
        "import thinlie.verify as v\n"
        f"real = v.{name}\n"
        "def forced(*a, **k):\n"
        "    run = real(*a, **k)\n"
        "    run.mismatches.append('forced')\n"
        "    return run\n"
        f"v.{name} = forced\n"
    )


FORCED = {
    "03_hamiltonian_families": (
        "import thinlie\n"
        "from thinlie.liealg import ValidationReport\n"
        "thinlie.validate_table = lambda *a, **k: ValidationReport(False, True, False, [], [])\n",
        "Jacobi FAIL",
    ),
    "03_hamiltonian_families-center": ("import thinlie\nthinlie.center = lambda t: ()\n", "failed: eps = 0 center"),
    "04_mixed_grading": (_forced_mismatch("run_mixed"), "MISMATCH: forced"),
    "05_prescribed_diamond_types": (_forced_mismatch("run_finite"), "-> FAIL"),
    "06_degenerations": (_forced_mismatch("run_eps_zero"), "ok=False"),
}


@pytest.mark.parametrize("case", sorted(FORCED))
def test_demo_fails_on_a_failed_check_under_python_O(case):
    # each demo must exit 1 on a failed check, not only print it; a case
    # named past the demo's stem forces a further check of the same demo
    patch, shown = FORCED[case]
    stem = case.partition("-")[0]
    script = patch + f"import runpy\nrunpy.run_path({str(ROOT / 'demos' / (stem + '.py'))!r}, run_name='__main__')\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 1, proc.stderr
    assert shown in proc.stdout and "failed: " in proc.stdout
