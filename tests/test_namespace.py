"""The lazy thinlie namespace: a name resolves on first read, and a
submodule import loads only what that submodule imports.

Each check runs in a fresh interpreter under -O, so the modules an earlier
test imported cannot hide a load, and reports by exit code: the child
never relies on an assert statement, which -O strips.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

NAMES = [
    "AlbertFrankSpec", "CartanParams", "ConsecutiveDiamonds", "DegreeMap", "DenominatorZero",
    "DiamondRecord", "EigenBasis", "Element", "FieldElement", "FieldSizeMismatch", "FieldSpec",
    "FieldTooLarge", "INFINITY", "LoopExpansion", "MalformedDiamond", "MapCheck", "Mu3InPrimeField",
    "NoAnnihilator", "NoRootInField", "NonPrimeCharacteristic", "NotASubalgebra",
    "NotAdditivelyClosed", "NotAnIdeal", "NotStabilized", "ReducibleModulus", "StructuralFailure",
    "StructureTable", "TableMismatch", "ThetaNotAdditive", "ThinReport", "ThinlieError",
    "ToralParams", "binom_mod_p", "bracket", "build_H2_phi1", "build_H2_phi_tau_derived",
    "build_H2_second_derived", "build_W1n", "build_albert_frank", "cartan", "center",
    "centralizer_chain", "check_covering", "check_structure_map", "choose_generators",
    "classify_type", "coeff_N", "coeff_Nprime", "combine_residues", "detect_diamonds",
    "eigenbasis", "errors", "ffield", "field_create", "find_roots", "frobenius", "grade_finite",
    "grade_mixed", "grading", "in_prime_field", "liealg", "loop_expand", "parameter_k",
    "params_from_mu3", "pth_root", "sigma_zero_subalgebra", "thin_report",
    "thinloop", "toral_element", "toral_params", "validate_grading", "validate_table",
    "zassenhaus_group_basis",
]

LOADED = "loaded = sorted(m for m in sys.modules if m == 'thinlie' or m.startswith('thinlie.'))\n"

CHECKS = {
    "bare-import-loads-no-submodule": (
        "import sys\n"
        "import thinlie\n"
        + LOADED
        + "sys.exit(0 if loaded == ['thinlie'] else f'loaded {loaded}')\n"
    ),
    "ffield-import-loads-errors-and-ffield": (
        "import sys\n"
        "import thinlie.ffield\n"
        + LOADED
        + "sys.exit(0 if loaded == ['thinlie', 'thinlie.errors', 'thinlie.ffield'] else f'loaded {loaded}')\n"
    ),
    "all-is-the-pinned-names": (
        "import sys\n"
        "import thinlie\n"
        f"want = {NAMES!r}\n"
        "got = sorted(thinlie.__all__)\n"
        "sys.exit(0 if got == want and len(want) == 73 and sorted(dir(thinlie)) == want else f'__all__ {got}')\n"
    ),
    "each-name-is-its-home-attribute": (
        # a module is its own home; any other value's home is where its
        # class or function was defined
        "import sys, types\n"
        "import thinlie\n"
        "bad = []\n"
        "for name in thinlie.__all__:\n"
        "    value = getattr(thinlie, name)\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        home = sys.modules.get(f'thinlie.{name}')\n"
        "        ok = value is home\n"
        "    else:\n"
        "        home = sys.modules.get(value.__module__)\n"
        "        ok = home is not None and value is getattr(home, name, None)\n"
        "    if not (ok and vars(thinlie)[name] is value and getattr(thinlie, name) is value):\n"
        "        bad.append(name)\n"
        "sys.exit(0 if not bad else f'not the home attribute: {bad}')\n"
    ),
    "star-import-binds-every-name": (
        "import sys\n"
        "import thinlie\n"
        "scope = {}\n"
        "exec('from thinlie import *', scope)\n"
        "missing = [n for n in thinlie.__all__ if scope.get(n) is not getattr(thinlie, n)]\n"
        "sys.exit(0 if not missing and len(thinlie.__all__) == 73 else f'not bound: {missing}')\n"
    ),
    "unknown-name-raises-attribute-error": (
        "import sys\n"
        "import thinlie\n"
        "try:\n"
        "    thinlie.no_such_name\n"
        "except AttributeError as exc:\n"
        "    want = \"module 'thinlie' has no attribute 'no_such_name'\"\n"
        "    sys.exit(0 if str(exc) == want else f'message {exc}')\n"
        "sys.exit('no AttributeError')\n"
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_namespace(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHECKS[name]], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
