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
